"""The route cache survives faults exactly.

``fail_link`` and ``crash_node`` patch the cached shortest-path trees
below the downed links; ``repair_link`` attaches a single-link endpoint
in place and otherwise keeps the trees that the change provably leaves
alone, dropping the rest.  After every step of a random fault sequence,
every cached tree — and every host pair's route — must equal what a
cache-free copy of the mutated graph computes from scratch.
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


def _assert_trees_match_fresh_copy(graph: PlatformGraph) -> None:
    """Every cached tree equals a from-scratch search, array for array;
    a tree still waiting for its patch is exact outside its cut."""
    fresh = graph.copy()
    for src, tree in graph._route_cache.items():
        assert tree == fresh._shortest_from(src), src
    for src, (tree, cut) in graph._route_patch.items():
        exact = fresh._shortest_from(src)
        for node in range(graph.num_nodes):
            if node not in cut:
                assert [a[node] for a in tree] == [a[node] for a in exact], \
                    (src, node)


def _routes_by_source(graph: PlatformGraph) -> dict:
    """Every node's route from each source with a tree in the cache,
    computed on a cache-free copy (so no pending patch is resolved)."""
    fresh = graph.copy()
    sources = set(graph._route_cache) | set(graph._route_patch)
    return {src: [fresh.route_or_none(src, node)
                  for node in range(graph.num_nodes)] for src in sources}


def _step_reporting_changes(graph: PlatformGraph, kind: str,
                            pick: int) -> None:
    """Apply one step and check ``route_changes`` names every node whose
    route from a cached source moved (the fault driver visits only
    those)."""
    before = _routes_by_source(graph)
    graph.route_changes = {}
    _step(graph, kind, pick)
    fresh = graph.copy()
    for src, routes in before.items():
        changed = graph.route_changes.get(src, frozenset())
        if changed is None:
            continue  # dropped whole: every route may differ
        for node, route in enumerate(routes):
            if fresh.route_or_none(src, node) != route:
                assert node in changed, (kind, src, node)


def _access_links(graph: PlatformGraph) -> list:
    """Links that are some host's only link (its access link)."""
    return sorted({link for h in graph.hosts if len(graph.adj[h]) == 1
                   for link in graph.adj[h].values()})


def _step(graph: PlatformGraph, kind: str, pick: int) -> None:
    """Apply one fault of ``kind`` to the ``pick``-th candidate (no-op
    when the graph has none)."""
    if kind in ("fail_access", "repair_access", "fail_fabric"):
        access = _access_links(graph)
        if kind == "fail_fabric":
            candidates = [l for l in range(graph.num_links)
                          if graph.link_up[l] and l not in access]
        else:
            up = kind == "fail_access"
            candidates = [l for l in access if graph.link_up[l] == up]
        if candidates:
            link = candidates[pick % len(candidates)]
            if kind == "repair_access":
                graph.repair_link(link)
            else:
                graph.fail_link(link)
    elif kind == "fail":
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
        _step_reporting_changes(graph, kind, pick)
        _assert_trees_match_fresh_copy(graph)
        _assert_routes_match_fresh_copy(graph)
        _assert_trees_match_fresh_copy(graph)


#: Fault mixes of leaf-spine chaos runs: host access links failing and
#: healing, fabric links failing, now and then a crash.
FABRIC_STEPS = st.lists(
    st.tuples(st.sampled_from(["fail_access", "fail_access",
                               "repair_access", "repair_access",
                               "fail_fabric", "fail_fabric", "repair",
                               "crash_switch", "crash_host"]),
              st.integers(0, 10**6)),
    min_size=1, max_size=16)


@given(st.integers(0, 10**6), FABRIC_STEPS, st.booleans())
@settings(max_examples=250, deadline=None)
@example(5, [("fail_fabric", 0), ("fail_access", 1), ("repair_access", 0),
             ("fail_fabric", 3), ("repair", 1)], False)
def test_leafspine_trees_equal_fresh_trees(seed, steps, route_between):
    """Patched trees stay exact array for array, whether or not lookups
    resolve the pending patches between faults; every node's tree is
    cached, switches included."""
    graph = _graph("leafspine", seed)
    for src in range(graph.num_nodes):
        graph.route_or_none(src, graph.root)
    for kind, pick in steps:
        _step_reporting_changes(graph, kind, pick)
        _assert_trees_match_fresh_copy(graph)
        if route_between:
            _assert_routes_match_fresh_copy(graph)
            _assert_trees_match_fresh_copy(graph)
    for src in list(graph._route_patch):
        graph.route_or_none(src, src)  # resolves the patch
    assert not graph._route_patch
    _assert_trees_match_fresh_copy(graph)


def test_access_link_fault_reports_the_host_alone():
    """A host's access-link failure and repair change its own entry in
    every other tree, patched without any search."""
    graph = PlatformGraph.leaf_spine([1] * 6, hosts_per_leaf=2,
                                     num_spines=2)
    for src in graph.hosts:
        graph.route_or_none(src, graph.root)
    link = graph.adj[3][7]  # host 3's access link (leaf 1)
    graph.fail_link(link)
    assert not graph._route_patch
    assert graph.route_changes[0] == {3}
    assert graph.route_changes[3] == set(range(graph.num_nodes)) - {3}
    graph.repair_link(link)
    assert graph.route_changes == {
        **{src: {3} for src in graph.hosts if src != 3}, 3: None}
    _assert_trees_match_fresh_copy(graph)


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
