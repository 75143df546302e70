"""Tests for kernel instrumentation hooks."""

from fractions import Fraction

import pytest

from repro.sim import Environment
from repro.sim.monitor import KindCounter, TraceRecorder, attach, detach


class TestTraceRecorder:
    def test_records_time_and_kind(self):
        env = Environment()
        rec = TraceRecorder()
        attach(env, rec)
        env.call_in(2, lambda: None)
        env.timeout(5)
        env.run()
        assert [t for t, _ in rec.records] == [2, 5]
        assert [k for _, k in rec.records] == ["call", "Timeout"]

    def test_limit_drops_oldest(self):
        env = Environment()
        rec = TraceRecorder(limit=3)
        attach(env, rec)
        for i in range(5):
            env.call_in(i + 1, lambda: None)
        env.run()
        assert len(rec) == 3
        assert rec.dropped == 2
        assert rec.records[0][0] == 3

    def test_unlimited(self):
        env = Environment()
        rec = TraceRecorder(limit=None)
        attach(env, rec)
        for i in range(10):
            env.call_in(1, lambda: None)
        env.run()
        assert len(rec) == 10 and rec.dropped == 0


class TestKindCounter:
    def test_counts_by_class(self):
        env = Environment()
        counter = KindCounter()
        attach(env, counter)
        env.call_in(1, lambda: None)
        env.timeout(1)
        env.timeout(2)
        env.run()
        assert counter.counts["call"] == 1
        assert counter.counts["Timeout"] == 2
        assert counter.total() == 3


class TestHookItem:
    """A hook sees each entry's call: ``perfbench/ledger.py`` and the
    liveness tests key on ``item.fn``."""

    @pytest.mark.parametrize("delay", [2, Fraction(5, 2)])
    def test_item_carries_callback_and_args(self, delay):
        env = Environment()
        seen = []
        env.trace_hook = lambda time, item: seen.append(
            (time, item.fn, item.args, item.seq))
        out = []
        env.call_in(delay, out.append, "x")
        env.call_in(1, out.append, "y")
        env.run()
        assert seen == [(1, out.append, ("y",), 2),
                        (delay, out.append, ("x",), 1)]
        assert out == ["y", "x"]

    def test_step_and_event_items(self):
        env = Environment()
        seen = []
        env.trace_hook = lambda time, item: seen.append(item.fn)
        timeout = env.timeout(1)
        env.step()
        assert seen == [timeout._process]

    def test_cancelled_entries_are_not_seen(self):
        env = Environment()
        seen = []
        env.trace_hook = lambda time, item: seen.append(item.args)
        env.cancel(env.call_in(1, print, "dead"))
        env.call_in(2, lambda *a: None, "live")
        env.run()
        assert seen == [("live",)]


class TestAttachDetach:
    def test_attach_conflict_raises(self):
        env = Environment()
        attach(env, KindCounter())
        with pytest.raises(ValueError):
            attach(env, KindCounter())

    def test_attach_same_hook_twice_ok(self):
        env = Environment()
        hook = KindCounter()
        attach(env, hook)
        attach(env, hook)

    def test_detach(self):
        env = Environment()
        attach(env, KindCounter())
        detach(env)
        assert env.trace_hook is None
        attach(env, KindCounter())  # free slot again
