"""Event-driven liveness detection on the ``request_timeout`` grid.

A parent arms one :meth:`NodeAgent._liveness_sweep` only when a fault
leaves it an unreachable, non-suspect child, at the next tick of its
grid (``origin + k * request_timeout``).  The detection instants are the
ones an always-on periodic sweep would produce, so faulted runs differ
from that older model only in ``events_processed``: the identity pin
below holds every other fingerprint field of a fixed cell matrix.
"""

from dataclasses import replace

import pytest

from repro import simulate as api_simulate
from repro.apps import Application, MultiAppEngine
from repro.platform import (ChurnSchedule, CrashEvent, FaultSchedule,
                            JoinEvent, LeaveEvent, LinkFailureEvent,
                            LinkRepairEvent, Mutation, MutationSchedule,
                            PlatformTree, figure1_tree)
from repro.platform.examples import figure2a_tree
from repro.platform.faults import chaos_schedule
from repro.platform.generator import generate_tree
from repro.platform.graph import PlatformGraph, generate_platform
from repro.protocols import ProtocolConfig, ProtocolEngine, Tracer, simulate
from repro.protocols import trace as trace_mod
from repro.protocols.agents import NodeAgent

IC3 = ProtocolConfig.interruptible(3)
NON_IC = ProtocolConfig.non_interruptible()

#: Figure 1 scenario shared by several cells: node 2's subtree crashes
#: and node 5's parent link is down for a while.
ACCEPTANCE = FaultSchedule([
    CrashEvent(at_time=80, node=2),
    LinkFailureEvent(at_time=60, node=5),
    LinkRepairEvent(at_time=220, node=5),
])


def digest_without_events(result) -> str:
    """Fingerprint of every deterministic field except
    ``events_processed``."""
    return replace(result, events_processed=0).fingerprint()


# ------------------------------------------------------------ cell matrix
def _chaos_cell(topology: str, seed: int, apps: int):
    """One cell of ``scripts/chaos_soak.py`` (120 tasks, six faults)."""
    if topology == "tree":
        platform = PlatformGraph.from_tree(generate_tree(seed=seed))
    else:
        platform = generate_platform(topology, seed=seed)
    schedule = chaos_schedule(platform, seed=seed * 1000 + 17, events=6)
    if apps == 1:
        workload = 120
    else:
        workload = [Application(120 // apps, name=f"app{i}", priority=i,
                                arrival=i * 100)
                    for i in range(apps)]
    return MultiAppEngine(platform, workload, IC3, faults=schedule,
                          check_invariants=True).run()


def _tree_chaos_cell(seed: int, config):
    tree = generate_tree(seed=seed)
    schedule = chaos_schedule(tree, seed=seed * 1000 + 17, events=6)
    return simulate(tree, config, 400, faults=schedule,
                    check_invariants=True)


def _graph_chaos_cell(topology: str, seed: int):
    platform = generate_platform(topology, seed=seed)
    schedule = chaos_schedule(platform, seed=seed * 1000 + 17, events=6)
    return api_simulate(platform, 150, IC3, faults=schedule,
                        check_invariants=True)


def _join_subtree():
    return PlatformTree([2, 2], [(0, 1, 1)])


SCENARIO_CELLS = {
    "fig1-acceptance-ic3": lambda: simulate(
        figure1_tree(), IC3, 2000, faults=ACCEPTANCE, check_invariants=True),
    "fig1-acceptance-nonic": lambda: simulate(
        figure1_tree(), NON_IC, 1000, faults=ACCEPTANCE,
        check_invariants=True),
    "fig1-quick-flap": lambda: simulate(figure1_tree(), IC3, 1000,
                                        faults=FaultSchedule([
        LinkFailureEvent(at_time=100, node=5),
        LinkRepairEvent(at_time=110, node=5)]), check_invariants=True),
    "fig1-long-outage": lambda: simulate(figure1_tree(), IC3, 3000,
                                         faults=FaultSchedule([
        LinkFailureEvent(at_time=100, node=5),
        LinkRepairEvent(at_time=2000, node=5)]), check_invariants=True),
    "fig1-partitioned-crash": lambda: simulate(figure1_tree(), IC3, 1000,
                                               faults=FaultSchedule([
        LinkFailureEvent(at_time=40, node=2),
        CrashEvent(at_time=60, node=2)]), check_invariants=True),
    "fig1-on-tick": lambda: simulate(figure1_tree(), IC3, 1500,
                                     faults=FaultSchedule([
        LinkFailureEvent(at_time=100, node=7),
        CrashEvent(at_time=150, node=3),
        LinkRepairEvent(at_time=400, node=7),
        LinkFailureEvent(at_time=450, node=1),
        LinkRepairEvent(at_time=500, node=1)]), check_invariants=True),
    "fig1-fast-timeout": lambda: simulate(
        figure1_tree(),
        ProtocolConfig.interruptible(3, request_timeout=10, max_retries=2),
        2000, faults=FaultSchedule([CrashEvent(at_time=80, node=1)]),
        check_invariants=True),
    "fig1-churn": lambda: simulate(
        figure1_tree(), IC3, 1500, faults=ACCEPTANCE,
        churn=ChurnSchedule([
            JoinEvent(at_time=150, parent=0, subtree=_join_subtree(),
                      attach_cost=1),
            LeaveEvent(at_time=300, node=1)]),
        check_invariants=True),
    "fig1-fault-in-joined-subtree": lambda: simulate(
        figure1_tree(), IC3, 1500,
        churn=ChurnSchedule([
            JoinEvent(at_time=170, parent=0, subtree=_join_subtree(),
                      attach_cost=1)]),
        faults=FaultSchedule([
            LinkFailureEvent(at_time=230, node=9),
            LinkRepairEvent(at_time=700, node=9),
            CrashEvent(at_time=260, node=2)]),
        check_invariants=True),
    "fig1-same-instant": lambda: simulate(
        figure1_tree(), IC3, 1200,
        mutations=MutationSchedule([
            Mutation(node=1, attribute="c", value=3, at_time=200),
            Mutation(node=5, attribute="w", value=1, at_time=200)]),
        churn=ChurnSchedule([
            JoinEvent(at_time=200, parent=0, subtree=_join_subtree(),
                      attach_cost=1)]),
        faults=FaultSchedule([
            CrashEvent(at_time=200, node=2),
            LinkFailureEvent(at_time=200, node=7),
            LinkRepairEvent(at_time=500, node=7)]),
        check_invariants=True),
    "fig2a-crash": lambda: simulate(
        figure2a_tree(), IC3, 300,
        faults=FaultSchedule([CrashEvent(at_time=150, node=2)])),
}
for _seed in (1, 2, 3):
    SCENARIO_CELLS[f"tree-chaos-{_seed}-ic3"] = (
        lambda s=_seed: _tree_chaos_cell(s, IC3))
    SCENARIO_CELLS[f"tree-chaos-{_seed}-nonic"] = (
        lambda s=_seed: _tree_chaos_cell(s, NON_IC))
for _topology in ("star", "leafspine"):
    SCENARIO_CELLS[f"graph-{_topology}-2"] = (
        lambda t=_topology: _graph_chaos_cell(t, 2))

CHAOS_CELLS = {
    f"chaos-{topology}-{seed}-{apps}":
        (lambda t=topology, s=seed, a=apps: _chaos_cell(t, s, a))
    for seed in (1, 2, 3)
    for topology in ("tree", "star", "chain", "leafspine")
    for apps in (1, 3)
}

CELLS = {**SCENARIO_CELLS, **CHAOS_CELLS}

#: ``digest_without_events`` of every cell, computed under the periodic
#: sweep that re-armed every ``request_timeout`` until the bag completed.
PINNED = {
    "chaos-chain-1-1":
        "e50d5f9c712eec9554d2a5a354b00b4d4adcaba466c2e7fdc643b5a16c01823c",
    "chaos-chain-1-3":
        "db6c268165426cc1921415fc72ef61dacf96c66a186de550556b2c92b1a54bb4",
    "chaos-chain-2-1":
        "004bfa5bad67351a1957fcba3157f5114fd99143cd9693956e7963d0bf4abc0a",
    "chaos-chain-2-3":
        "00f087f99fa94dc58cbd5e606cc10b8f98317c8c77b3efd96a02c35d8853e9d6",
    "chaos-chain-3-1":
        "b85d3b204381b6b993226e28682e3096e55e67797d085046f4b0b78ff7c3b579",
    "chaos-chain-3-3":
        "5359ac3b214fd818b1803d985bf87e88895b1fa2f7ab5bc0af4be176cdc64110",
    "chaos-leafspine-1-1":
        "44e5a94b644eb8a552e355a1fc313f759368a993b671b25b204c1bfbe51fe53c",
    "chaos-leafspine-1-3":
        "dd57aaf2e19b7277d10bfabba830bd69742cd9622dcbaf2c2d06d3a22ced005d",
    "chaos-leafspine-2-1":
        "04bade11c0a4641952d5f1c6202d1b00458389cbdfbaed7f7eb5eee532abf002",
    "chaos-leafspine-2-3":
        "787eadc016843c77c9282a468ac3ece4d33c50cf3644a4ecd0e0f3f6bb88c2d7",
    "chaos-leafspine-3-1":
        "68791e8d35282438e7aad8b852af0b4906fd939c43244663d9bfbfe58182bf2c",
    "chaos-leafspine-3-3":
        "ba199cbf25535862cb79c04449297dfdc0079176a325a935fdcbc6d85fbca499",
    "chaos-star-1-1":
        "2b6ed8bd9d2e9c8e41ba52024677c6251fd877ad2d3587eb2ccf5b38e966f9f2",
    "chaos-star-1-3":
        "40450b1894ea414301724ff6222a960b7bdda9f3b6a5eadad7130d52713c3bee",
    "chaos-star-2-1":
        "17d94dc1db2bd3924a39ee9e0d0bcb800207442cef79eb3ec87c23eacbfef996",
    "chaos-star-2-3":
        "dc93b577cdc39428d39812a17558871d75ef0a3f7e9f4527eec516c50ad3be68",
    "chaos-star-3-1":
        "f30c485e6c633cdebf3230cd1b303d3c2bce56887813fef04760ec09dc493ebe",
    "chaos-star-3-3":
        "3649db3258ef0c9b16c14aa22143e64566a9c572ec10a9e5b744ebeee7c7e288",
    "chaos-tree-1-1":
        "731dd57105051e67b37a941889c1874d1d3eed2e48caf0783c7e2fe8affdb94d",
    "chaos-tree-1-3":
        "27fde0fc0892b2c85769d8640f9bfd0762e3788cc9c1028e1e815b5f27a14cab",
    "chaos-tree-2-1":
        "ccf735c9a4371ec3d0652d6dd79be14637f145063fb0b8a712ea787da36523e1",
    "chaos-tree-2-3":
        "820728fdc399bdd1eb4f46969f60bd41febbfe58342ec4d741a5397ed7f560a5",
    "chaos-tree-3-1":
        "9254c066ab5a6aa34f301b8357c8946e7ae9d8c111569291262d9fe21a235c7b",
    "chaos-tree-3-3":
        "5659bcb673644e881cf00f1edc1a75aaa306def390b96567ae256baac96db10d",
    "fig1-acceptance-ic3":
        "7ba76ee612eed1a6a1a6e3b1883ba47bc8af35906a8c4580a8788a0995e2722f",
    "fig1-acceptance-nonic":
        "0c352ae7e0c0146b5d19f8aaed2c3937755fd6c7d8449808a2644a2c0980b129",
    "fig1-churn":
        "8bcc2b294782bcf0a5b27a63c2e41176cbfd7aed19eba7881d69ea55a83520ad",
    "fig1-fast-timeout":
        "d79a246668b54f8c60a00b0bd25239e47f7d25b777652e1ef272380eed3bf736",
    "fig1-fault-in-joined-subtree":
        "a58f88e09d43241bffc095fcca1030692bd3e157677bf8a3d9c096e9ab370604",
    "fig1-long-outage":
        "0fad212d577fa6c6e449c3a36dd133e96ca0f13c595a7003f4781e326fb7da33",
    "fig1-on-tick":
        "e210d4348e42fff55ee5e74269c8a63e2c8fc39367aced09a3264b56942a1772",
    "fig1-partitioned-crash":
        "46a25e57d4eb59e7b4faa468f92c39fd27fe246cf0601acfb9dd2bfe6dc14e30",
    "fig1-quick-flap":
        "57604ba6cfeecabe7cfd8f2423d4f592fc34fd24948c7147ad7d3b4b3974ec30",
    "fig1-same-instant":
        "6f87aeae883fda917e5f8733f52c5d1d8b311e1b9d694967d7422b2bff49fb93",
    "fig2a-crash":
        "4803497f4a8bc08542483f8747ed5a75e37c61c14013dbcfa5bea31c90c7669e",
    "graph-leafspine-2":
        "474f93223a47e26be382b684d4fb1b5b46e970903877408327aefdf33f7f4ee7",
    "graph-star-2":
        "2859866c714489b50988f0dd017861d3468ae6fe82c904ca92e0e1ad0a0cba48",
    "tree-chaos-1-ic3":
        "131c0b382b814e6624e66d3c441b46ea59ac27d15907bb8772385c24cfd9af78",
    "tree-chaos-1-nonic":
        "4cdbed511f3b08d1e3833ab6be90569f6d9d4f5b9620eb56a2454d968e428998",
    "tree-chaos-2-ic3":
        "7e2bf62728c120bbcec3de2b0c9314315958552f97a0416e3194f23b9f7b383a",
    "tree-chaos-2-nonic":
        "031d40f8653f505e87d9eb04f79817581ee9a6764f5bd0cc0fbd533e2ec96a8c",
    "tree-chaos-3-ic3":
        "3ff80e3293423b2728e4e2312e9d5e4986fa0b9e92d89507bd1c7260ad08e45b",
    "tree-chaos-3-nonic":
        "14239226738518cf8d14fafcbe3eabd09fe79f37dccc76905e5db78224e39bab",
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_faulted_runs_match_the_periodic_sweep(cell):
    assert digest_without_events(CELLS[cell]()) == PINNED[cell]


# ------------------------------------------------------ detection semantics
def _suspicions(tracer):
    """``(time, parent, child)`` of every SUSPECT transition."""
    return [(e.time, e.node, e.peer) for e in tracer.events
            if e.kind == trace_mod.SUSPECT]


def _record_sweeps(env):
    """Collect ``(time, agent id)`` of every sweep the calendar runs."""
    fires = []

    def hook(time, item):
        fn = getattr(item, "fn", None)
        if getattr(fn, "__func__", None) is NodeAgent._liveness_sweep:
            fires.append((time, fn.__self__.id))

    env.trace_hook = hook
    return fires


def _traced(tree, faults, num_tasks=60, churn=None):
    engine = ProtocolEngine(tree, IC3, num_tasks, faults=faults, churn=churn,
                            check_invariants=True)
    tracer = Tracer()
    engine.tracer = tracer
    fires = _record_sweeps(engine.env)
    result = engine.run()
    assert len(result.completion_times) == num_tasks
    return result, tracer, fires


#: Root 0 with a fast worker 1 and a slow worker 2: once worker 2's three
#: buffers are full (by t=10) it asks for nothing until its first task
#: finishes at t=1000, so its parent never tries a send to it in between.
IDLE_FORK = PlatformTree.fork(10**4, [(1, 2), (1, 1000)])


class TestDetectionSemantics:
    def test_idle_child_is_suspected_at_the_next_tick(self):
        faults = FaultSchedule([LinkFailureEvent(at_time=120, node=2)])
        _, tracer, fires = _traced(IDLE_FORK, faults)
        assert _suspicions(tracer)[0] == (150, 0, 2)
        assert fires == [(150, 0)]

    def test_fault_on_a_tick_is_detected_at_that_tick(self):
        faults = FaultSchedule([LinkFailureEvent(at_time=150, node=2)])
        _, tracer, fires = _traced(IDLE_FORK, faults)
        assert _suspicions(tracer)[0] == (150, 0, 2)
        assert fires == [(150, 0)]

    def test_crash_detection_follows_the_grid(self):
        faults = FaultSchedule([CrashEvent(at_time=101, node=2)])
        _, tracer, fires = _traced(IDLE_FORK, faults)
        assert _suspicions(tracer)[0] == (150, 0, 2)
        assert fires == [(150, 0)]

    def test_joined_node_grid_starts_at_its_join_time(self):
        # Node 3 joins under the root at t=170 with a slow child 4; the
        # root's grid ticks at 250, node 3's at 220, 270, ...
        churn = ChurnSchedule([JoinEvent(
            at_time=170, parent=0,
            subtree=PlatformTree([10**4, 1000], [(0, 1, 1)]),
            attach_cost=1)])
        faults = FaultSchedule([LinkFailureEvent(at_time=230, node=4)])
        _, tracer, fires = _traced(IDLE_FORK, faults, churn=churn)
        assert _suspicions(tracer)[0] == (270, 3, 4)
        assert fires == [(270, 3)]

    def test_staggered_lane_grid_starts_at_its_arrival(self):
        # Lane 1 arms at t=130: its root ticks at 180, lane 0's at 200.
        platform = PlatformGraph.from_tree(IDLE_FORK)
        faults = FaultSchedule([LinkFailureEvent(at_time=160, node=2)])
        engine = MultiAppEngine(
            platform, [Application(30, name="a"),
                       Application(30, name="b", arrival=130)],
            IC3, faults=faults, check_invariants=True)
        tracers = engine.attach_tracers()
        fires = _record_sweeps(engine.env)
        engine.run()
        assert _suspicions(tracers[0])[0] == (200, 0, 2)
        assert _suspicions(tracers[1])[0] == (180, 0, 2)
        assert sorted(fires) == [(180, 0), (200, 0)]

    def test_no_sweep_after_the_bag_completes(self):
        faults = FaultSchedule([LinkFailureEvent(at_time=10**6, node=2),
                                CrashEvent(at_time=10**6 + 1, node=1)])
        result, tracer, fires = _traced(IDLE_FORK, faults, num_tasks=20)
        assert result.last_completion_time < 10**6
        assert fires == []
        assert _suspicions(tracer) == []

    def test_no_sweep_after_the_parent_crashes(self):
        # Relay 1 loses its idle child 3 at t=120 and arms a sweep for
        # t=150, then crashes at t=130: the sweep is revoked, and later
        # faults arm nothing on the dead relay.
        tree = PlatformTree([10**4, 10**4, 2, 1000],
                            [(0, 1, 1), (0, 2, 1), (1, 3, 1)])
        faults = FaultSchedule([LinkFailureEvent(at_time=120, node=3),
                                CrashEvent(at_time=130, node=1),
                                LinkFailureEvent(at_time=300, node=2),
                                LinkRepairEvent(at_time=301, node=2)])
        engine = ProtocolEngine(tree, IC3, 60, faults=faults,
                                check_invariants=True)
        fires = _record_sweeps(engine.env)
        engine._arm()
        engine.env.run(until=125)
        assert engine.nodes[1].sweep_timer is not None
        engine.env.run()
        assert engine.completed == 60
        assert all(agent != 1 for _, agent in fires)
        assert engine.nodes[1].sweep_timer is None
