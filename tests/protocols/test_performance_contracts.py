"""Performance contracts: the engine must stay fast enough for ensembles.

Not micro-benchmarks (those live in ``benchmarks/``) but hard ceilings on
algorithmic behaviour — event counts and memory shape — that would
silently blow up ensemble experiments if a change made them quadratic.
"""

import pytest

from repro.experiments.fig4 import FIG4_CONFIGS
from repro.platform import PlatformGraph, PlatformTree, generate_tree
from repro.platform.examples import figure2a_tree
from repro.platform.faults import (CrashEvent, EdgeFailureEvent,
                                   EdgeRepairEvent, FaultSchedule)
from repro.platform.generator import PAPER_DEFAULTS
from repro.protocols import (GraphFaultDriver, ProtocolConfig, simulate,
                             simulate_graph)
from repro.protocols.agents import NodeAgent

IC3 = ProtocolConfig.interruptible(3)


class TestEventComplexity:
    def test_events_linear_in_tasks(self):
        """Calendar entries per task must be bounded (no re-queueing storms)."""
        tree = generate_tree(seed=3)
        small = simulate(tree, IC3, 500)
        large = simulate(tree, IC3, 2000)
        per_task_small = small.events_processed / 500
        per_task_large = large.events_processed / 2000
        # Amortized entries per task must not grow with the task count.
        assert per_task_large <= per_task_small * 1.5 + 2
        # And stay modest in absolute terms (compute + a few transfer hops).
        assert per_task_large < 60

    def test_events_bounded_on_star(self):
        """A 300-child star must not devolve into per-request rescans that
        multiply events: entries stay linear in tasks."""
        n = 300
        tree = PlatformTree([10**6] + [5] * (n - 1),
                            [(0, i, 1 + i % 7) for i in range(1, n)])
        result = simulate(tree, IC3, 600)
        assert result.events_processed < 600 * 30

    def test_preemptions_bounded_per_task(self):
        """Each delivered task can trigger at most a handful of preemptions
        (one per strictly-better child appearing mid-transfer)."""
        tree = generate_tree(seed=11)
        result = simulate(tree, IC3, 1500)
        assert result.preemptions < 6 * 1500

    @pytest.mark.parametrize("num_tasks", [250, 1000])
    def test_fault_cost_independent_of_makespan(self, num_tasks):
        """One crash must cost events in proportion to the fault, not to
        the virtual time the run lasts: the Figure 2a root's single
        10^9-step task keeps the run alive long after the crash, and no
        liveness timer may tick through that idle stretch."""
        faults = FaultSchedule([CrashEvent(at_time=150, node=2)])
        clean = simulate(figure2a_tree(), IC3, num_tasks)
        faulted = simulate(figure2a_tree(), IC3, num_tasks, faults=faults)
        assert faulted.last_completion_time == 10**9
        assert faulted.crashed_node_ids == (2,)
        assert faulted.events_processed <= 2 * clean.events_processed


class TestSendAttemptCost:
    """A relay hop makes a send decision only when one can start
    something: on deep trees most attempts find a leaf, or a parent with
    no buffered task, and must return before ``_choose_next``."""

    def test_send_decisions_per_transfer_leg(self, monkeypatch):
        calls = {"decisions": 0, "legs": 0}
        choose, begin = NodeAgent._choose_next, NodeAgent._begin_leg

        def counted_choose(agent):
            calls["decisions"] += 1
            return choose(agent)

        def counted_begin(agent, transfer):
            calls["legs"] += 1
            return begin(agent, transfer)

        monkeypatch.setattr(NodeAgent, "_choose_next", counted_choose)
        monkeypatch.setattr(NodeAgent, "_begin_leg", counted_begin)
        tree = generate_tree(PAPER_DEFAULTS, seed=0)
        assert len(tree) >= 300
        for config in FIG4_CONFIGS:
            simulate(tree, config, 2000)
        # Every leg takes one decision; IC preemption checks add the rest.
        assert calls["legs"] > 4 * 2000
        assert calls["decisions"] <= 1.5 * calls["legs"]


class TestRouteRefreshCost:
    """A fault costs shortest-path searches only for the cached trees it
    touches, not one per cached source."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """Count ``_shortest_from`` calls that miss the route cache."""
        count = [0]
        search = PlatformGraph._shortest_from

        def counted(graph, src):
            if src not in graph._route_cache:
                count[0] += 1
            return search(graph, src)

        monkeypatch.setattr(PlatformGraph, "_shortest_from", counted)
        return count

    @staticmethod
    def _fabric():
        # Three leaves of two hosts, two equal-cost spines: hosts 0-5,
        # leaves 6-8, spines 9-10.
        return PlatformGraph.leaf_spine([1] * 6, hosts_per_leaf=2,
                                        num_spines=2)

    @staticmethod
    def _route_all(graph, sources):
        return {(s, d): graph.route_or_none(s, d)
                for s in sources for d in graph.hosts}

    @staticmethod
    def _crossing(graph, sources, link):
        """Sources whose shortest-path tree uses ``link``."""
        return {s for s in sources
                if any(link in (graph.route_or_none(s, d) or ())
                       for d in range(graph.num_nodes))}

    def test_unused_link_failure_runs_no_search(self, searches):
        # Like the fault driver, route only from overlay parents: the
        # repository (host 0) and a rack head (host 2).
        graph = self._fabric()
        sources = (0, 2)
        before = self._route_all(graph, sources)
        assert searches[0] == len(sources)
        link = graph.adj[8][10]  # leaf 2 - spine 1
        assert not self._crossing(graph, sources, link)
        searches[0] = 0
        graph.fail_link(link)
        assert self._route_all(graph, sources) == before
        assert searches[0] == 0

    def test_spine_link_failure_searches_only_crossing_sources(self,
                                                               searches):
        graph = self._fabric()
        hosts = graph.hosts
        graph.fail_link(graph.adj[7][9])  # leaf 1 now reaches spine 1 only
        self._route_all(graph, hosts)
        link = graph.adj[8][9]  # leaf 2 - spine 0
        crossing = self._crossing(graph, hosts, link)
        # Leaf 1's hosts reach spine 0 through leaf 0; the others cross.
        assert crossing == {0, 1, 4, 5}
        searches[0] = 0
        graph.fail_link(link)
        routes = self._route_all(graph, hosts)
        assert searches[0] == len(crossing)
        fresh = graph.copy()
        assert routes == {(s, d): fresh.route_or_none(s, d)
                          for s, d in routes}

    def test_access_link_fault_reroutes_only_its_host(self, searches,
                                                      monkeypatch):
        """A host's access link failing and healing patches every tree
        in place (no search), and the refresh re-checks only the host
        behind it.  An unused spine link fails first, so that the
        driver's one full refresh is behind it."""
        graph = self._fabric()
        host, leaf = 3, 7  # rack 1 (hosts 2-3): host 2 heads it
        faults = FaultSchedule([
            EdgeFailureEvent(at_time=5, link=graph.adj[8][10]),
            EdgeFailureEvent(at_time=20, link=graph.adj[host][leaf]),
            EdgeRepairEvent(at_time=40, link=graph.adj[host][leaf])])
        checked = []
        route_or_none = PlatformGraph.route_or_none

        def recorded(graph, src, dst):
            checked.append((src, dst))
            return route_or_none(graph, src, dst)

        monkeypatch.setattr(PlatformGraph, "route_or_none", recorded)
        refreshes = []
        refresh = GraphFaultDriver._refresh_routes

        def scoped(driver, *args, **kwargs):
            checked.clear()
            before = searches[0]
            refresh(driver, *args, **kwargs)
            refreshes.append((driver.env.now, searches[0] - before,
                              list(checked)))

        monkeypatch.setattr(GraphFaultDriver, "_refresh_routes", scoped)
        result = simulate_graph(graph, IC3, 60, faults=faults)
        assert result.num_tasks == 60
        first, down, up = refreshes
        assert first[0] == 5 and len(first[2]) == len(graph.hosts) - 1
        assert down == (20, 0, [(2, host)])
        assert up == (40, 0, [(2, host)])


class TestMemoryShape:
    def test_result_size_independent_of_makespan(self):
        """Only per-node arrays and one entry per completion are retained —
        a long virtual run must not retain per-event state."""
        tree = PlatformTree.fork(10**6, [(1, 10**4), (2, 10**4)])
        result = simulate(tree, IC3, 50)  # huge makespan, tiny run
        assert len(result.completion_times) == 50
        assert len(result.per_node_computed) == 3
        assert result.buffer_high_water_at_completion == ()

    def test_ic_shelf_bounded_by_children(self):
        from repro.protocols import ProtocolEngine

        tree = generate_tree(seed=7)
        engine = ProtocolEngine(tree, IC3, 400)
        max_shelf = [0]

        def watch(time, item):
            for node in engine.nodes:
                if len(node.shelf) > max_shelf[0]:
                    max_shelf[0] = len(node.shelf)
                assert len(node.shelf) <= len(node.children)

        engine.env.trace_hook = watch
        engine.run()
        assert max_shelf[0] >= 1  # shelving actually happened
