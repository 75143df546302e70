"""Run-time invariant checks on agent state, verified after every event.

The buffer ledger of §3 must balance at all times:
``buffers_total == tasks_held + requested + incoming`` for every non-root
node, and a parent's aggregate request counter must equal the sum of its
children's outstanding requests.  The send index must mirror the
requests: bit ``r`` of a parent's ``req_bits`` is set exactly when the
child at rank ``r`` of its schedule has ``requested > 0``.  We attach a
kernel trace hook and verify after every processed calendar entry.
"""

import pytest

from repro.apps import Application, MultiAppEngine
from repro.platform import (ChurnSchedule, CrashEvent, EdgeFailureEvent,
                            EdgeRepairEvent, FaultSchedule,
                            JoinEvent, LeaveEvent, LinkFailureEvent,
                            LinkRepairEvent, Mutation, MutationSchedule,
                            PlatformTree, chaos_schedule, figure1_tree,
                            figure2a_tree, generate_platform)
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.protocols import (GraphProtocolEngine, ProtocolConfig,
                             ProtocolEngine, topology_overlay)
from repro.protocols.config import PriorityRule


def check_send_index(nodes, time=None):
    """Every alive parent's ``req_bits`` is exactly the set of ranks whose
    child has an outstanding request, over a correctly ranked schedule."""
    for node in nodes:
        if not node.alive:
            continue
        expected = 0
        for rank, child in enumerate(node.sorted_children):
            assert child.bit == 1 << rank, (
                f"node {node.id} at t={time}: child {child.id} has bit "
                f"{child.bit:#x}, rank {rank}")
            if child.requested > 0:
                expected |= child.bit
        assert node.req_bits == expected, (
            f"node {node.id} at t={time}: req_bits {node.req_bits:#x}, "
            f"requests {expected:#x}")


class InvariantChecker:
    def __init__(self, engine):
        self.engine = engine
        self.checks = 0

    def __call__(self, time, item):
        for node in self.engine.nodes:
            if not node.is_root:
                ledger = node.tasks_held + node.requested + node.incoming
                assert node.buffers_total == ledger, (
                    f"node {node.id} at t={time}: buffers={node.buffers_total} "
                    f"held={node.tasks_held} requested={node.requested} "
                    f"incoming={node.incoming}")
                assert node.undispensed == 0
            assert node.tasks_held >= 0
            assert node.incoming >= 0
            assert node.child_requests == sum(
                ch.requested for ch in node.children)
            if node.fifo_queue is not None:
                # The send-attempt test reads child_requests for FIFO too.
                assert len(node.fifo_queue) == node.child_requests
            if node.current_transfer is not None:
                assert node.current_transfer.remaining > 0
            for child_id in node.shelf:
                assert node.shelf[child_id].remaining > 0
        check_send_index(self.engine.nodes, time)
        self.checks += 1


def run_checked(tree, config, num_tasks):
    engine = ProtocolEngine(tree, config, num_tasks)
    checker = InvariantChecker(engine)
    engine.env.trace_hook = checker
    result = engine.run()
    assert checker.checks > 0
    return result


CONFIGS = [
    ProtocolConfig.interruptible(1),
    ProtocolConfig.interruptible(3),
    ProtocolConfig.non_interruptible(),
    ProtocolConfig.non_interruptible(2, buffer_growth=False),
    ProtocolConfig.non_interruptible(priority_rule=PriorityRule.FIFO),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
class TestInvariants:
    def test_figure1(self, config):
        run_checked(figure1_tree(), config, 300)

    def test_figure2a(self, config):
        run_checked(figure2a_tree(parent_w=20), config, 300)

    def test_random_trees(self, config):
        params = TreeGeneratorParams(min_nodes=5, max_nodes=30,
                                     max_comm=10, max_comp=50)
        for seed in (1, 2, 3):
            run_checked(generate_tree(params, seed=seed), config, 150)


class TestFinalState:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
    def test_everything_quiescent_at_end(self, config):
        engine = ProtocolEngine(figure1_tree(), config, 200)
        engine.run()
        for node in engine.nodes:
            assert node.tasks_held == 0
            assert node.incoming == 0
            assert not node.cpu_busy
            assert node.current_transfer is None
            assert not node.shelf
            assert node.undispensed == 0


class IndexChecker:
    """Trace hook checking only the send index, for runs (faults, churn,
    several lanes) whose request counters legitimately drift from the
    fault-free ledger above."""

    def __init__(self, lanes):
        self.lanes = lanes
        self.checks = 0

    def __call__(self, time, item):
        for lane in self.lanes:
            check_send_index(lane.nodes, time)
        self.checks += 1


def run_index_checked(engine, lanes=None):
    checker = IndexChecker(lanes or [engine])
    engine.env.trace_hook = checker
    result = engine.run()
    assert checker.checks > 0
    return result


IC3 = ProtocolConfig.interruptible(3)
#: One buffer and no growth: a child with its only task in flight has no
#: outstanding request, so a lost or reclaimed transfer is the request
#: that sets its bit.
SINGLE_BUFFER = [ProtocolConfig.interruptible(1),
                 ProtocolConfig.non_interruptible(1, buffer_growth=False)]


class TestSendIndex:
    """The index stays exact through every path that changes requests or
    the schedule: graphs, churn, mutations, faults and re-parenting."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
    def test_wide_star(self, config):
        # 100 children: the index spans more than one machine word.
        star = PlatformTree.fork(3, [(1 + i % 7, 20 + i % 13)
                                     for i in range(100)])
        run_index_checked(ProtocolEngine(star, config, 400))

    @pytest.mark.parametrize("shape", ["star", "chain", "leafspine"])
    def test_graph(self, shape):
        graph = generate_platform(shape, seed=7)
        run_index_checked(GraphProtocolEngine(
            graph, IC3, 150, overlay=topology_overlay(graph)))

    @pytest.mark.parametrize("leaver", range(1, 8))
    def test_churn(self, leaver):
        events = [
            JoinEvent(at_time=50, parent=0,
                      subtree=PlatformTree.single_node(2), attach_cost=1),
            LeaveEvent(at_time=120, node=leaver),
            JoinEvent(at_time=200, parent=8,  # joined above, never leaves
                      subtree=PlatformTree.single_node(4), attach_cost=2),
        ]
        run_index_checked(ProtocolEngine(figure1_tree(), IC3, 600,
                                         churn=ChurnSchedule(events)))

    def test_mutations(self):
        sched = MutationSchedule([
            Mutation(node=1, attribute="c", value=3, after_tasks=100),
            Mutation(node=2, attribute="c", value=1, after_tasks=200),
            Mutation(node=1, attribute="c", value=2, after_tasks=300)])
        run_index_checked(ProtocolEngine(figure1_tree(), IC3, 500,
                                         mutations=sched))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tree_faults(self, seed):
        tree = generate_tree(seed=seed)
        run_index_checked(ProtocolEngine(
            tree, IC3, 300, faults=chaos_schedule(tree, seed=seed)))

    @pytest.mark.parametrize("config", SINGLE_BUFFER, ids=lambda c: c.label)
    def test_link_outages(self, config):
        # Outages long enough for the parent to declare the child dead
        # while it still computes (and re-requests) its buffered tasks,
        # starting at every early instant so some land mid-transfer.
        wasted = 0
        for node in (1, 2, 5):
            for start in range(1, 13):
                sched = FaultSchedule([
                    LinkFailureEvent(at_time=start, node=node),
                    LinkRepairEvent(at_time=start + 400, node=node),
                    CrashEvent(at_time=start + 30, node=6)])
                result = run_index_checked(ProtocolEngine(
                    figure1_tree(), config, 120, faults=sched))
                wasted += result.transfers_wasted
        assert wasted > 0

    def test_declared_dead_child_keeps_working(self):
        # The slow child is cut off, declared dead and detached while it
        # still computes; its later re-requests must not touch the bits
        # of the siblings that now hold its old rank.
        star = PlatformTree.fork(5, [(1, 2000), (2, 3), (3, 4)])
        sched = FaultSchedule([LinkFailureEvent(at_time=10, node=1),
                               LinkRepairEvent(at_time=5000, node=1)])
        result = run_index_checked(ProtocolEngine(star, IC3, 2000,
                                                  faults=sched))
        assert result.per_node_computed[1] > 1

    @pytest.mark.parametrize("config", SINGLE_BUFFER, ids=lambda c: c.label)
    def test_graph_link_outages(self, config):
        graph = generate_platform("star", seed=7)
        # The cheapest links are served first, so early outages on them
        # cut flows in flight.
        cheapest = sorted(graph.links(), key=lambda link: link[3])[:3]
        wasted = 0
        for link, *_ends in cheapest:
            for start in range(1, 13):
                sched = FaultSchedule([
                    EdgeFailureEvent(at_time=start, link=link),
                    EdgeRepairEvent(at_time=start + 400, link=link)])
                result = run_index_checked(GraphProtocolEngine(
                    graph, config, 120, overlay=topology_overlay(graph),
                    faults=sched))
                wasted += result.transfers_wasted
        assert wasted > 0

    @pytest.mark.parametrize("config", [IC3] + SINGLE_BUFFER,
                             ids=lambda c: c.label)
    @pytest.mark.parametrize("shape", ["star", "chain", "leafspine"])
    def test_graph_faults(self, shape, config):
        graph = generate_platform(shape, seed=7)
        for seed in (23, 24, 25):
            run_index_checked(GraphProtocolEngine(
                graph, config, 150, overlay=topology_overlay(graph),
                faults=chaos_schedule(graph, seed=seed)))

    def test_rack_head_crash_reparents(self):
        graph = generate_platform("leafspine", seed=7)
        overlay = topology_overlay(graph)
        parent = overlay.tree.parent
        head = next(overlay.hosts[oid] for oid in range(1, len(parent))
                    if parent[oid] == 0 and oid in parent)
        run_index_checked(GraphProtocolEngine(
            graph, IC3, 150, overlay=overlay,
            faults=FaultSchedule([CrashEvent(at_time=40, node=head)])))

    def test_multi_app_faults(self):
        graph = generate_platform("leafspine", seed=7)
        engine = MultiAppEngine(
            graph, [Application(60, name=f"app{i}") for i in range(3)],
            IC3, faults=chaos_schedule(graph, seed=5))
        run_index_checked(engine, engine.lanes)
