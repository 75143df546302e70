"""The route cache survives faults exactly.

``fail_link``, ``repair_link`` and ``crash_node`` keep the cached
shortest-path trees that the change provably leaves alone and drop the
rest.  After every step of a random fault sequence, every host pair must
route exactly as on a cache-free copy of the mutated graph, which
recomputes each tree from scratch.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.platform import PlatformGraph, PlatformTree

SHAPES = ("star", "chain", "tree", "mesh", "leafspine")


def _graph(shape: str, seed: int) -> PlatformGraph:
    """A small graph of ``shape``; costs in {1, 2} make equal-cost ties
    common (on leaf-spine fabrics every spine ties)."""
    rng = random.Random(seed)
    cost = lambda: rng.randint(1, 2)
    if shape == "star":
        return PlatformGraph.star(3, [(cost(), 2) for _ in range(rng.randint(1, 6))])
    if shape == "chain":
        n = rng.randint(2, 7)
        return PlatformGraph.chain([2] * n, [cost() for _ in range(n - 1)])
    if shape in ("tree", "mesh"):
        n = rng.randint(2, 9)
        edges = [(rng.randrange(i), i, cost()) for i in range(1, n)]
        if shape == "tree":
            return PlatformGraph.from_tree(PlatformTree([2] * n, edges))
        links = {(min(u, v), max(u, v)): c for u, v, c in edges}
        for _ in range(rng.randint(1, n)):
            u, v = rng.sample(range(n), 2)
            links.setdefault((min(u, v), max(u, v)), cost())
        return PlatformGraph([2] * n, [(u, v, c) for (u, v), c in links.items()])
    hosts = rng.randint(2, 8)
    return PlatformGraph.leaf_spine(
        [2] * hosts, hosts_per_leaf=rng.randint(1, 3),
        num_spines=rng.randint(1, 3),
        access_costs=[cost() for _ in range(hosts)], fabric_cost=cost())


def _assert_routes_match_fresh_copy(graph: PlatformGraph) -> None:
    fresh = graph.copy()  # empty route cache: every tree from scratch
    for src in graph.hosts:
        for dst in graph.hosts:
            assert graph.route_or_none(src, dst) == fresh.route_or_none(src, dst), \
                (src, dst)


def _step(graph: PlatformGraph, kind: str, pick: int) -> None:
    """Apply one fault of ``kind`` to the ``pick``-th candidate (no-op
    when the graph has none)."""
    if kind == "fail":
        candidates = [l for l in range(graph.num_links) if graph.link_up[l]]
        if candidates:
            graph.fail_link(candidates[pick % len(candidates)])
    elif kind == "repair":
        candidates = [l for l in range(graph.num_links) if not graph.link_up[l]]
        if candidates:
            graph.repair_link(candidates[pick % len(candidates)])
    else:
        candidates = graph.switches if kind == "crash_switch" else graph.hosts
        if candidates:
            graph.crash_node(candidates[pick % len(candidates)])


STEPS = st.lists(
    st.tuples(st.sampled_from(["fail", "fail", "repair", "repair",
                               "crash_switch", "crash_host"]),
              st.integers(0, 10**6)),
    min_size=1, max_size=12)


@given(st.sampled_from(SHAPES), st.integers(0, 10**6), STEPS)
@settings(max_examples=250, deadline=None)
@example("leafspine", 3, [("fail", 0), ("repair", 0), ("fail", 9),
                          ("crash_switch", 1), ("repair", 2)])
def test_cached_routes_equal_fresh_routes(shape, seed, steps):
    graph = _graph(shape, seed)
    _assert_routes_match_fresh_copy(graph)  # warms every host's tree
    for kind, pick in steps:
        _step(graph, kind, pick)
        _assert_routes_match_fresh_copy(graph)


class TestLeafSpineTies:
    """Two equal-cost spines: routes prefer the lower-id spine."""

    @pytest.fixture
    def fabric(self):
        return PlatformGraph.leaf_spine([1] * 4, hosts_per_leaf=2,
                                        num_spines=2)

    def _spine_link(self, fabric, leaf, spine):
        first_leaf, first_spine = 4, 6
        return fabric.adj[first_leaf + leaf][first_spine + spine]

    def test_failover_and_tying_repair(self, fabric):
        via_spine0 = fabric.route(0, 2)
        assert self._spine_link(fabric, 0, 0) in via_spine0
        fabric.fail_link(self._spine_link(fabric, 0, 0))
        assert self._spine_link(fabric, 0, 1) in fabric.route(0, 2)
        # The repaired link ties the spine-1 path: the cached tree goes
        # and the lower-id spine wins again.
        fabric.repair_link(self._spine_link(fabric, 0, 0))
        assert fabric.route(0, 2) == via_spine0

    def test_route_raises_where_route_or_none_is_none(self, fabric):
        from repro.errors import PlatformError

        fabric.crash_node(0)
        assert fabric.route_or_none(1, 0) is None
        with pytest.raises(PlatformError, match="no route from 1 to 0"):
            fabric.route(1, 0)
        with pytest.raises(PlatformError, match="out of range"):
            fabric.route(1, 99)
