"""Stateful property testing of the kernel's calendar.

A hypothesis state machine schedules, cancels and runs timers in random
interleavings — double cancels, cancels after firing, bulk cancels that
cross the compaction threshold, and ``step()`` mixed with
``run(until=...)`` — and checks the kernel's core contract: every
non-cancelled timer fires exactly once, at its due time, in nondecreasing
time order, FIFO at ties, and the clock never moves backwards.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.core import _COMPACT_MIN


class CalendarMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.env = Environment()
        self.live = {}          # label → (due time, handle)
        self.fired = []         # (time, label) in firing order
        self.cancelled = set()
        self.next_seq = 0

    def _make_callback(self, seq):
        def fire():
            self.fired.append((self.env.now, seq))

        return fire

    def _schedule(self, delay):
        seq = self.next_seq
        self.next_seq += 1
        handle = self.env.call_in(delay, self._make_callback(seq))
        self.live[seq] = (self.env.now + delay, handle)
        return seq

    def _pending(self):
        fired = {s for _t, s in self.fired}
        return [s for s in self.live
                if s not in fired and s not in self.cancelled]

    @rule(delay=st.integers(0, 50))
    def schedule(self, delay):
        self._schedule(delay)

    @rule(data=st.data(), twice=st.booleans())
    def cancel_one(self, data, twice):
        pending = self._pending()
        if not pending:
            return
        seq = data.draw(st.sampled_from(pending))
        handle = self.live[seq][1]
        self.env.cancel(handle)
        self.cancelled.add(seq)
        dead = set(self.env._dead)
        assert handle[2] in dead or len(dead) == 0  # marked, or compacted
        if twice:
            self.env.cancel(handle)  # a double cancel changes nothing
            assert self.env._dead == dead

    @rule(data=st.data())
    def cancel_after_fire(self, data):
        if not self.fired:
            return
        _t, seq = data.draw(st.sampled_from(self.fired))
        dead = set(self.env._dead)
        heap = list(self.env._heap)
        self.env.cancel(self.live[seq][1])  # a no-op on a fired entry
        assert self.env._dead == dead
        assert self.env._heap == heap

    @rule(delays=st.lists(st.integers(0, 50), min_size=8, max_size=8))
    def bulk_cancel_compacts(self, delays):
        """Cancel enough entries to cross ``_COMPACT_MIN``: the calendar
        is rebuilt and the survivors keep their order."""
        total = _COMPACT_MIN + 2 * len(delays)
        labels = [self._schedule(delays[i % len(delays)])
                  for i in range(total)]
        keep = set(labels[::total // len(delays)])
        heap_before = len(self.env._heap)
        for seq in labels:
            if seq not in keep:
                self.env.cancel(self.live[seq][1])
                self.cancelled.add(seq)
        assert len(self.env._dead) < _COMPACT_MIN  # a compaction ran
        assert len(self.env._heap) < heap_before

    @rule(steps=st.integers(1, 5))
    def run_some(self, steps):
        for _ in range(steps):
            if self.env.is_empty():
                break
            self.env.step()

    @rule(span=st.integers(0, 30), steps=st.integers(1, 3))
    def run_until_then_step(self, span, steps):
        until = self.env.now + span
        self.env.run(until=until)
        assert self.env.now == until
        due = [self.live[s][0] for s in self._pending()]
        assert all(t >= until for t in due)
        self.run_some(steps)

    @rule()
    def run_all(self):
        self.env.run()

    @invariant()
    def clock_monotone_and_order_correct(self):
        times = [t for t, _s in self.fired]
        assert times == sorted(times)
        # FIFO at equal times: sequence numbers increase within a time bin.
        by_time = {}
        for t, s in self.fired:
            by_time.setdefault(t, []).append(s)
        for seqs in by_time.values():
            assert seqs == sorted(seqs)

    @invariant()
    def no_cancelled_timer_ever_fires(self):
        fired_seqs = {s for _t, s in self.fired}
        assert not (fired_seqs & self.cancelled)

    @invariant()
    def fired_at_their_due_time(self):
        for t, s in self.fired:
            due = self.live[s][0]
            assert t == due

    def teardown(self):
        # Drain and check completeness: everything not cancelled fired once.
        self.env.run()
        fired_seqs = [s for _t, s in self.fired]
        assert len(fired_seqs) == len(set(fired_seqs))
        expected = set(self.live) - self.cancelled
        assert set(fired_seqs) == expected
        assert not self.env._dead


TestCalendarStateMachine = CalendarMachine.TestCase
TestCalendarStateMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None)
