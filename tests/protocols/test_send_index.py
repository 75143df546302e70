"""The indexed send decision equals the bandwidth-centric linear scan.

``NodeAgent._choose_next`` finds the best child through the parent's
``req_bits`` index instead of walking ``sorted_children``.  These tests
drive random request, shelf, suspect, task-supply and re-sort states
through the agents' own methods, on fan-outs from 1 to 1,100 (well past
one 64-bit word), and check after every step that the indexed choice is
the child the plain scan picks.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.platform import PlatformTree
from repro.protocols import ProtocolConfig, ProtocolEngine
from repro.protocols.agents import Transfer

#: Non-interruptible without growth: a request never preempts and never
#: grows a buffer, so each step changes only the state it names.
CONFIG = ProtocolConfig.non_interruptible(2, buffer_growth=False)


def reference_choice(parent):
    """The bandwidth-centric rule as a linear scan of the schedule."""
    suspect, shelf = parent.suspect, parent.shelf
    if shelf:
        task_ready = parent.has_task()
        for child in parent.sorted_children:
            if child.id in suspect:
                continue
            if child.id in shelf:
                return child
            if task_ready and child.requested > 0:
                return child
        return None
    if not parent.has_task() or parent.child_requests == 0:
        return None
    for child in parent.sorted_children:
        if child.requested > 0 and child.id not in suspect:
            return child
    return None


def build(fanout, seed):
    """A started star whose root port is held by a placeholder transfer,
    so requests only queue and every send happens where the test says."""
    rng = random.Random(seed)
    # Few distinct costs: many ties, broken by node id.
    star = PlatformTree.fork(5, [(rng.randint(1, 4), rng.randint(5, 50))
                                 for _ in range(fanout)])
    engine = ProtocolEngine(star, CONFIG, 10**6)
    root = engine.nodes[0]
    for agent in engine.nodes:
        agent.enable_fault_recovery()
    for child in root.children:
        child.send_initial_requests()
    root.current_transfer = Transfer(root.children[0], 1)
    return root


def step(root, op, rank, value):
    ranked = root.sorted_children
    child = ranked[min(rank, len(ranked) - 1)]
    if op == "request":
        child.buffers_total += 1
        child.tasks_held += 1
        child._take_task()
    elif op == "serve":
        placeholder, root.current_transfer = root.current_transfer, None
        root.try_send()
        root.current_transfer = placeholder
    elif op == "suspect":
        root._mark_suspect(child)
    elif op == "readmit":
        if child.id in root.suspect:
            root._readmit_child(child)
    elif op == "shelve":
        root.shelf[child.id] = Transfer(child, 1)
    elif op == "unshelve":
        root.shelf.pop(child.id, None)
    elif op == "recost":
        child.apply_weight_change("c", value)
    elif op == "supply":
        root.undispensed = value - 1  # 0: no task to send
    else:  # pragma: no cover
        raise AssertionError(op)


OPS = st.lists(
    st.tuples(st.sampled_from(["request", "serve", "serve", "suspect",
                               "readmit", "shelve", "unshelve", "recost",
                               "supply"]),
              # Mostly the best-ranked few, where decisions are made.
              st.one_of(st.integers(0, 3), st.integers(0, 1100)),
              st.integers(1, 4)),
    max_size=60)


@settings(max_examples=80, deadline=None)
@given(fanout=st.integers(1, 1100), seed=st.integers(0, 2**16), ops=OPS)
@example(fanout=1100, seed=0,
         ops=[("serve", 0, 1)] * 40 + [("suspect", 0, 1), ("serve", 0, 1)])
@example(fanout=3, seed=2, ops=[("suspect", 0, 1)])
@example(fanout=5, seed=3,  # a shelved child outranks every request
         ops=[("serve", 0, 1), ("serve", 0, 1), ("shelve", 0, 1)])
@example(fanout=3, seed=4, ops=[("shelve", 0, 1), ("suspect", 0, 1)])
@example(fanout=70, seed=1,
         ops=[("shelve", 69, 1), ("supply", 0, 1), ("serve", 0, 1),
              ("recost", 69, 1), ("serve", 0, 1)])
def test_indexed_choice_equals_linear_scan(fanout, seed, ops):
    root = build(fanout, seed)
    assert root._choose_next() is reference_choice(root)
    for op, rank, value in ops:
        step(root, op, rank, value)
        assert root._choose_next() is reference_choice(root), (op, rank)
