"""Lazy-deletion cancellation: the dead set, compaction, ordering.

``Environment.cancel`` marks an entry dead by its sequence number and
leaves it in the heap; the kernel drops it when it surfaces and rebuilds
the calendar once dead entries dominate (see
``repro.sim.core._COMPACT_MIN``).  These tests pin the bookkeeping and —
crucially — that compaction never changes what runs when.
"""

from fractions import Fraction

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from repro.sim.core import _COMPACT_MIN


class TestCancelBookkeeping:
    def test_cancel_is_idempotent(self):
        env = Environment()
        timer = env.call_in(5, lambda: None)
        env.cancel(timer)
        env.cancel(timer)
        assert env._dead == {timer[2]}
        assert env.is_empty()

    def test_cancel_after_fire_is_noop(self):
        env = Environment()
        fired = []
        timer = env.call_in(1, fired.append, 1)
        env.run()
        assert fired == [1]
        env.cancel(timer)  # must not mark a popped entry dead
        assert not env._dead
        later = env.call_in(1, fired.append, 2)
        env.cancel(timer)  # nor once a later entry is queued
        assert not env._dead
        env.run()
        assert fired == [1, 2] and later[2] == timer[2] + 1

    def test_pop_decrements_counter(self):
        env = Environment()
        env.cancel(env.call_in(1, lambda: None))
        env.call_in(2, lambda: None)
        assert len(env._dead) == 1
        env.run()
        assert not env._dead

    def test_peek_skips_tombstones(self):
        env = Environment()
        env.cancel(env.call_in(1, lambda: None))
        env.call_in(2, lambda: None)
        assert env.peek() == 2
        assert not env._dead  # peek discarded the dead entry

    def test_step_skips_tombstones(self):
        env = Environment()
        env.cancel(env.call_in(1, lambda: None))
        out = []
        env.call_in(2, out.append, "live")
        env.step()
        assert out == ["live"]
        assert not env._dead

    def test_cancel_marks_the_seq_dead(self):
        env = Environment()
        timer = env.call_in(3, lambda: None)
        assert timer in env._heap and not env._dead
        env.cancel(timer)
        assert env._dead == {timer[2]}
        assert timer in env._heap  # lazy: still queued until it surfaces

    def test_fraction_time_handles(self):
        """Non-integer times queue an ``_Entry``; it is the handle too."""
        env = Environment()
        fired = []
        keep = env.call_in(Fraction(1, 3), fired.append, "keep")
        drop = env.call_in(Fraction(1, 4), fired.append, "drop")
        assert (keep.fn, keep.args) == (fired.append, ("keep",))
        env.cancel(drop)
        env.cancel(drop)
        assert env._dead == {drop.seq}
        env.run()
        env.cancel(keep)  # already ran
        assert fired == ["keep"] and not env._dead


class TestCompaction:
    def test_compaction_triggers_and_preserves_survivors(self):
        env = Environment()
        fired = []
        survivors = []
        tombstones = []
        # Interleave live and soon-cancelled timers at distinct times.
        for i in range(2 * _COMPACT_MIN):
            if i % 4 == 0:
                survivors.append((i, env.call_in(i + 1, fired.append, i)))
            else:
                tombstones.append(env.call_in(i + 1, fired.append, -1))
        for timer in tombstones:
            env.cancel(timer)
        # The _COMPACT_MIN-th cancel crossed both thresholds and compacted
        # the 1024 dead entries present at that instant; the remaining 512
        # cancels stay below the absolute floor and sit in the heap.
        assert len(env._dead) == len(tombstones) - _COMPACT_MIN
        assert len(env._heap) == len(survivors) + len(env._dead)
        env.run()
        assert fired == [i for i, _t in survivors]

    def test_compaction_keeps_heap_identity(self):
        # run() holds local bindings to the heap list and the dead set; a
        # compaction from inside a callback must mutate those same objects.
        env = Environment()
        heap_id = id(env._heap)
        dead_id = id(env._dead)
        fired = []

        def cancel_many():
            timers = [env.call_in(10 + i, fired.append, -1)
                      for i in range(2 * _COMPACT_MIN)]
            for timer in timers:
                env.cancel(timer)
            env.call_in(5, fired.append, "after")

        env.call_in(1, cancel_many)
        env.run()
        assert fired == ["after"]
        assert id(env._heap) == heap_id
        assert id(env._dead) == dead_id

    def test_no_compaction_below_threshold(self):
        env = Environment()
        for _ in range(10):
            env.cancel(env.call_in(1, lambda: None))
        # Dead entries dominate but the absolute floor is not reached.
        assert len(env._dead) == 10
        assert len(env._heap) == 10

    def test_ordering_with_heavy_cancellation(self):
        """Same-time entries keep scheduling order across cancellations."""
        env = Environment()
        fired = []
        keep = []
        for i in range(300):
            timer = env.call_in(7, fired.append, i)
            if i % 3 == 0:
                env.cancel(timer)
            else:
                keep.append(i)
        env.run()
        assert fired == keep


class TestRunMirrorsStep:
    """The inlined run() loop and step() must dispatch identically."""

    def _drive(self, use_step: bool):
        env = Environment()
        out = []
        env.call_in(1, out.append, "t1")
        env.call_in(2, out.append, "t2")
        env.call_in(1, out.append, "t1b")
        env.timeout(1, "ev").callbacks.append(lambda e: out.append(e.value))
        cancelled = env.call_in(1, out.append, "never")
        env.cancel(cancelled)
        if use_step:
            while not env.is_empty():
                env.step()
        else:
            env.run()
        return out, env.processed_count, env.now

    def test_identical_dispatch(self):
        assert self._drive(use_step=True) == self._drive(use_step=False)

    def test_step_on_empty_calendar_raises(self):
        env = Environment()
        with pytest.raises(SimulationError, match="empty calendar"):
            env.step()
