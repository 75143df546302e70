"""Fault tolerance on graph platforms: routed events, recovery, chaos.

The tree fault model ("a node" or "a node's parent link") generalizes on
:class:`PlatformGraph` runs to *routed* faults — an edge-addressed link
failure degrades every flow crossing it, a switch crash takes its whole
incident link set down, a degrade window squeezes bandwidth without
changing routes.  These tests pin the deterministic total order of
same-instant graph events (mirroring the tree ``_EVENT_RANK`` tests),
the static validation of graph schedules, partition detection and
overlay re-election, the recovery bookkeeping (wasted transfers,
re-executions, reclaims), and the seeded chaos generator the soak gate
is built on.
"""

from fractions import Fraction

import pytest

from repro.errors import PlatformError, ProtocolError
from repro.platform import (
    CrashEvent,
    DegradeEvent,
    EdgeFailureEvent,
    EdgeRepairEvent,
    FaultSchedule,
    LinkFailureEvent,
    LinkRepairEvent,
    Mutation,
    SwitchCrashEvent,
    chaos_schedule,
    generate_platform,
)
from repro.platform.generator import generate_tree
from repro.protocols import (
    GraphProtocolEngine,
    PriorityRule,
    ProtocolConfig,
    reassign_orphans,
    simulate_graph,
    topology_overlay,
)

CONFIG = ProtocolConfig.interruptible(3)


def _leafspine():
    return generate_platform("leafspine", seed=7)


def _head_and_mates(graph):
    """First overlay rack head that actually has rack-mates."""
    overlay = topology_overlay(graph)
    parent = overlay.tree.parent
    for oid in range(1, len(overlay.hosts)):
        if parent[oid] != 0:
            continue
        head = overlay.hosts[oid]
        mates = [overlay.hosts[o] for o in range(1, len(overlay.hosts))
                 if parent[o] == oid]
        if mates:
            return head, mates
    raise AssertionError("no rack head with mates in this fabric")


class TestSameTimeOrdering:
    """Graph kinds extend the tree rank: tree events < edge failure <
    edge repair < switch crash < degrade, then id breaks ties."""

    def test_kind_rank_at_equal_time(self):
        schedule = FaultSchedule([
            DegradeEvent(at_time=10, link=1, factor=Fraction(1, 2),
                         duration=50),
            SwitchCrashEvent(at_time=10, node=4),
            EdgeRepairEvent(at_time=10, link=0),
            CrashEvent(at_time=10, node=2),
            EdgeFailureEvent(at_time=10, link=2),
            LinkFailureEvent(at_time=10, node=3),
        ])
        assert [type(e) for e in schedule] == [
            LinkFailureEvent, CrashEvent, EdgeFailureEvent,
            EdgeRepairEvent, SwitchCrashEvent, DegradeEvent]

    def test_link_id_breaks_remaining_ties(self):
        schedule = FaultSchedule([
            EdgeFailureEvent(at_time=10, link=9),
            EdgeFailureEvent(at_time=10, link=4),
        ])
        assert [e.link for e in schedule] == [4, 9]

    def test_tree_events_sort_before_graph_events(self):
        # Tree-addressed kinds keep their exact historical positions, so
        # pre-existing tree schedules are byte-stable under the new ranks.
        schedule = FaultSchedule([
            EdgeFailureEvent(at_time=10, link=0),
            LinkRepairEvent(at_time=10, node=99),
            LinkFailureEvent(at_time=10, node=99),
        ])
        assert [type(e) for e in schedule] == [
            LinkFailureEvent, LinkRepairEvent, EdgeFailureEvent]

    def test_order_independent_of_construction(self):
        events = [
            SwitchCrashEvent(at_time=10, node=4),
            EdgeFailureEvent(at_time=10, link=2),
            EdgeRepairEvent(at_time=10, link=2),
            DegradeEvent(at_time=5, link=0, factor=Fraction(1, 3),
                         duration=20),
        ]
        reference = FaultSchedule(events).events
        assert FaultSchedule(reversed(events)).events == reference
        assert FaultSchedule(events[::2] + events[1::2]).events == reference


class TestValidateGraph:
    def test_unknown_link_rejected(self):
        graph = generate_platform("star", seed=7)
        schedule = FaultSchedule([EdgeFailureEvent(at_time=1, link=9999)])
        with pytest.raises(PlatformError, match="unknown link"):
            schedule.validate_graph(graph)

    def test_root_fault_rejected(self):
        graph = generate_platform("star", seed=7)
        schedule = FaultSchedule([CrashEvent(at_time=1, node=graph.root)])
        with pytest.raises(PlatformError, match="repository root"):
            schedule.validate_graph(graph)

    def test_double_edge_failure_rejected(self):
        graph = generate_platform("star", seed=7)
        schedule = FaultSchedule([
            EdgeFailureEvent(at_time=1, link=0),
            EdgeFailureEvent(at_time=5, link=0),
        ])
        with pytest.raises(PlatformError, match="already down"):
            schedule.validate_graph(graph)

    def test_repair_without_failure_rejected(self):
        graph = generate_platform("star", seed=7)
        schedule = FaultSchedule([EdgeRepairEvent(at_time=1, link=0)])
        with pytest.raises(PlatformError, match="never down"):
            schedule.validate_graph(graph)

    def test_switch_crash_on_host_rejected(self):
        graph = _leafspine()
        host = next(h for h in graph.hosts if h != graph.root)
        schedule = FaultSchedule([SwitchCrashEvent(at_time=1, node=host)])
        with pytest.raises(PlatformError, match="is a host"):
            schedule.validate_graph(graph)

    def test_host_crash_on_switch_rejected(self):
        graph = _leafspine()
        schedule = FaultSchedule(
            [CrashEvent(at_time=1, node=graph.switches[0])])
        with pytest.raises(PlatformError, match="is a switch"):
            schedule.validate_graph(graph)

    def test_events_on_crash_killed_link_rejected(self):
        graph = _leafspine()
        switch = graph.switches[0]
        incident = next(l for l, u, v, _c in graph.links()
                        if switch in (u, v))
        schedule = FaultSchedule([
            SwitchCrashEvent(at_time=10, node=switch),
            EdgeFailureEvent(at_time=20, link=incident),
        ])
        with pytest.raises(PlatformError, match="never repairs"):
            schedule.validate_graph(graph)

    def test_post_crash_node_events_rejected(self):
        graph = _leafspine()
        host = next(h for h in graph.hosts if h != graph.root)
        schedule = FaultSchedule([
            CrashEvent(at_time=10, node=host),
            CrashEvent(at_time=20, node=host),
        ])
        with pytest.raises(PlatformError, match="already crashed"):
            schedule.validate_graph(graph)

    def test_overlapping_degrade_windows_rejected(self):
        graph = generate_platform("star", seed=7)
        schedule = FaultSchedule([
            DegradeEvent(at_time=10, link=0, factor=Fraction(1, 2),
                         duration=100),
            DegradeEvent(at_time=50, link=0, factor=Fraction(1, 4),
                         duration=10),
        ])
        with pytest.raises(PlatformError, match="still open"):
            schedule.validate_graph(graph)

    def test_multihop_tree_link_event_rejected(self):
        # On a leaf-spine fabric every overlay route crosses the fabric;
        # "host X's parent link" is ambiguous there, so the tree-addressed
        # special case refuses and points at the edge-addressed events.
        graph = _leafspine()
        head, _mates = _head_and_mates(graph)
        schedule = FaultSchedule([LinkFailureEvent(at_time=10, node=head)])
        with pytest.raises(PlatformError, match="multi-hop"):
            schedule.validate_graph(graph, topology_overlay(graph))

    def test_degrade_factor_must_be_exact(self):
        with pytest.raises(PlatformError, match="exact Fraction"):
            DegradeEvent(at_time=1, link=0, factor=0.5, duration=10)
        with pytest.raises(PlatformError, match=r"in \(0, 1\)"):
            DegradeEvent(at_time=1, link=0, factor=Fraction(3, 2),
                         duration=10)


class TestPartitionDetection:
    def test_unreachable_host_has_no_route(self):
        graph = generate_platform("chain", seed=7).copy()
        graph.fail_link(1)  # severs hosts 2.. from the repository
        assert graph.route_or_none(graph.root, 2) is None
        assert graph.route_or_none(graph.root, 1) is not None
        graph.repair_link(1)
        assert graph.route_or_none(graph.root, 2) is not None

    def test_partition_parks_then_heals(self):
        # Failing the chain's first link cuts every worker off; the root
        # computes alone until the repair readmits them, and the bag
        # still completes with the in-flight loss reclaimed.
        graph = generate_platform("chain", seed=7)
        schedule = FaultSchedule([
            EdgeFailureEvent(at_time=5, link=0),
            EdgeRepairEvent(at_time=155, link=0),
        ])
        result = simulate_graph(graph, CONFIG, 120, faults=schedule,
                                check_invariants=True)
        assert len(result.completion_times) == 120
        assert result.transfers_wasted >= 1
        assert result.tasks_reexecuted >= 1
        assert result.reclaim_times

    def test_permanent_partition_still_completes(self):
        # A switch crash never repairs: the severed rack parks forever
        # and the surviving hosts absorb its share of the bag.
        graph = _leafspine()
        schedule = FaultSchedule(
            [SwitchCrashEvent(at_time=40, node=graph.switches[0])])
        result = simulate_graph(graph, CONFIG, 150, faults=schedule,
                                check_invariants=True)
        assert len(result.completion_times) == 150
        assert result.crashed_node_ids == ()  # no *host* died

    def test_permanent_partition_deterministic(self):
        graph = _leafspine()

        def run():
            schedule = FaultSchedule(
                [SwitchCrashEvent(at_time=40, node=graph.switches[0])])
            return simulate_graph(graph, CONFIG, 150,
                                  faults=schedule).fingerprint()

        assert run() == run()


class TestOverlayReelection:
    def test_leafspine_reelection_is_lowest_orphan(self):
        graph = _leafspine()
        head, mates = _head_and_mates(graph)
        mapping = reassign_orphans(graph, head, mates, graph.root)
        new_head = min(mates)
        want = {m: new_head for m in mates}
        want[new_head] = graph.root
        assert mapping == want

    def test_non_leafspine_orphans_go_to_grandparent(self):
        graph = generate_platform("star", seed=7)
        assert reassign_orphans(graph, 3, [4, 5], graph.root) == {
            4: graph.root, 5: graph.root}

    def test_no_orphans_no_mapping(self):
        graph = _leafspine()
        assert reassign_orphans(graph, 1, [], graph.root) == {}

    def test_head_crash_end_to_end(self):
        graph = _leafspine()
        head, _mates = _head_and_mates(graph)
        schedule = FaultSchedule([CrashEvent(at_time=40, node=head)])
        result = simulate_graph(graph, CONFIG, 150, faults=schedule,
                                check_invariants=True)
        assert result.crashed_node_ids == (head,)
        assert result.crash_times == (40,)
        assert len(result.completion_times) == 150

    def test_head_crash_reroutes_the_orphans(self):
        """Orphans re-parented by a head crash take routes from their
        new parents, also when an earlier fault already ran the
        driver's one full refresh (later refreshes are event-scoped)."""
        graph = _leafspine()
        head, mates = _head_and_mates(graph)
        spine_link = max(graph.adj[graph.num_nodes - 1].values())
        schedule = FaultSchedule([EdgeFailureEvent(at_time=10,
                                                   link=spine_link),
                                  CrashEvent(at_time=40, node=head)])
        engine = GraphProtocolEngine(graph, CONFIG, 150,
                                     overlay=topology_overlay(graph),
                                     faults=schedule, check_invariants=True)
        engine.run()
        fresh = engine.graph.copy()
        hosts = engine.overlay.hosts
        moved = 0
        for agent in engine.nodes:
            if agent.is_root or not agent.alive or not agent.parent.alive:
                continue
            assert agent.route == fresh.route(hosts[agent.parent.id],
                                              hosts[agent.id])
            moved += hosts[agent.id] in mates
        assert moved == len(mates)


class TestRecovery:
    def test_mid_transfer_kill_wastes_and_reexecutes(self):
        graph = generate_platform("chain", seed=7)
        schedule = FaultSchedule([
            EdgeFailureEvent(at_time=10, link=0),
            EdgeRepairEvent(at_time=160, link=0),
        ])
        result = simulate_graph(graph, CONFIG, 120, faults=schedule,
                                check_invariants=True)
        assert result.transfers_wasted == 1
        assert result.tasks_reexecuted == 1
        assert len(result.completion_times) == 120

    def test_degrade_changes_the_run(self):
        graph = _leafspine()
        schedule = FaultSchedule([
            DegradeEvent(at_time=20, link=0, factor=Fraction(1, 4),
                         duration=200)])
        degraded = simulate_graph(graph, CONFIG, 120, faults=schedule,
                                  check_invariants=True)
        clean = simulate_graph(graph, CONFIG, 120)
        assert len(degraded.completion_times) == 120
        assert degraded.fingerprint() != clean.fingerprint()

    def test_empty_schedule_is_fault_free(self):
        graph = generate_platform("star", seed=7)
        want = simulate_graph(graph, CONFIG, 120).fingerprint()
        got = simulate_graph(graph, CONFIG, 120,
                             faults=FaultSchedule()).fingerprint()
        assert got == want

    def test_chaos_run_repeatable(self):
        graph = generate_platform("star", seed=7)

        def run():
            return simulate_graph(
                graph, CONFIG, 120,
                faults=chaos_schedule(graph, seed=11),
                check_invariants=True).fingerprint()

        assert run() == run()

    def test_warp_stands_down_under_graph_faults(self):
        graph = generate_platform("star", seed=7)
        warp_config = ProtocolConfig.interruptible(3, warp=True)

        def schedule():
            return FaultSchedule([
                EdgeFailureEvent(at_time=10, link=0),
                EdgeRepairEvent(at_time=60, link=0),
            ])

        warped = simulate_graph(graph, warp_config, 120, faults=schedule())
        assert warped.warp.applied is False
        assert "fault schedule" in warped.warp.reason
        exact = simulate_graph(graph, CONFIG, 120, faults=schedule())
        assert warped.fingerprint() == exact.fingerprint()


class TestChaosSchedule:
    @pytest.mark.parametrize("shape", ["star", "chain", "leafspine"])
    def test_same_seed_same_schedule(self, shape):
        graph = generate_platform(shape, seed=7)
        a = chaos_schedule(graph, seed=5)
        b = chaos_schedule(graph, seed=5)
        assert a.events == b.events

    def test_tree_chaos_validates(self):
        tree = generate_tree(seed=3)
        schedule = chaos_schedule(tree, seed=5)
        schedule.validate(tree)  # must not raise
        assert not schedule.has_graph_events()

    @pytest.mark.parametrize("shape", ["star", "chain", "leafspine"])
    def test_graph_chaos_validates_with_overlay(self, shape):
        graph = generate_platform(shape, seed=7)
        schedule = chaos_schedule(graph, seed=5)
        schedule.validate_graph(graph, topology_overlay(graph))

    @pytest.mark.parametrize("shape", ["star", "chain", "leafspine"])
    def test_chaos_conserves_the_bag(self, shape):
        graph = generate_platform(shape, seed=7)
        result = simulate_graph(graph, CONFIG, 100,
                                faults=chaos_schedule(graph, seed=23),
                                check_invariants=True)
        assert len(result.completion_times) == 100


class TestAPIGuards:
    """The front-door rejections stay pinned to their exact messages."""

    def test_graph_mutations_rejected(self):
        from repro import simulate

        graph = generate_platform("star", seed=7)
        mutation = Mutation(node=1, attribute="w", value=graph.w[1],
                            at_time=50)
        with pytest.raises(ProtocolError,
                           match="graph platforms do not support them"):
            simulate(graph, 50, CONFIG, mutations=[mutation])

    def test_fifo_with_faults_rejected(self):
        graph = generate_platform("star", seed=7)
        fifo = ProtocolConfig.non_interruptible(
            priority_rule=PriorityRule.FIFO)
        schedule = FaultSchedule([EdgeFailureEvent(at_time=10, link=0),
                                  EdgeRepairEvent(at_time=60, link=0)])
        with pytest.raises(ProtocolError,
                           match="FIFO ordering are unsupported"):
            simulate_graph(graph, fifo, 50, faults=schedule)
