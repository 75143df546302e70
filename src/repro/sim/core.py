"""Discrete-event simulation kernel: the event loop.

This module is the substrate that replaces the SimGrid toolkit used in the
paper.  It provides a :class:`Environment` with a binary-heap event calendar,
virtual (integer- or float-valued) time, and two scheduling APIs:

* a **high-level API** in the style of SimPy — :class:`~repro.sim.events.Event`,
  :class:`~repro.sim.events.Timeout`, generator-based
  :class:`~repro.sim.process.Process` coroutines, shared resources and stores —
  used by the examples and available to downstream users, and
* a **low-level callback API** (:meth:`Environment.call_in` /
  :meth:`Environment.call_at`) returning the calendar entry itself as a
  handle that :meth:`Environment.cancel` revokes, used by the protocol
  engine on its hot path where coroutine overhead would dominate.

Both APIs share one calendar, so they can be mixed freely: every entry is
``(time, priority, seq, fn, args)`` and runs as ``fn(*args)`` — a
triggered event is queued as ``(..., event._process, ())``.  Determinism:
entries are ordered by ``(time, priority, sequence)`` where the sequence
number increases monotonically with scheduling order, so runs with the same
seed replay identically.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Optional, Union

from ..errors import SimulationError
from .events import AllOf, AnyOf, Event, Timeout, PENDING, _Entry

__all__ = ["Environment", "Infinity", "NORMAL", "URGENT"]

#: Placeholder for "run forever" / "never".
Infinity: float = float("inf")

#: Default scheduling priority (larger runs later at equal times).
NORMAL = 1
#: Priority used for loop-control entries such as ``run(until=...)`` stops.
URGENT = 0

#: The form a trace hook receives an integer-time entry in: its five fields
#: by name (a non-integer-time entry is an ``_Entry`` and passed as is).
_Call = namedtuple("_Call", "time prio seq fn args")

#: Compaction trigger: once at least this many cancelled entries sit in the
#: heap *and* they outnumber the live entries, the calendar is rebuilt.
_COMPACT_MIN = 1024


class _StopRun(Exception):
    """Internal control-flow exception used by ``run(until=...)``."""

    def __init__(self, value: Any = None):
        self.value = value


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Virtual time at which the clock starts (default ``0``).  Integer
        initial times combined with integer delays keep the whole simulation
        in exact integer arithmetic, which the reproduction relies on for
        exact rate comparisons.

    Notes
    -----
    The calendar orders entries by ``(time, priority, seq)``.  ``priority``
    is :data:`NORMAL` for user entries and :data:`URGENT` for loop-control
    entries, matching the convention that ``run(until=t)`` stops *before*
    processing events scheduled exactly at ``t``.
    """

    def __init__(self, initial_time: Union[int, float] = 0):
        self._now = initial_time
        #: Calendar entries — a mixed heap of two slot shapes holding the
        #: same five fields ``(time, priority, seq, fn, args)`` and sharing
        #: the ``(time, priority, seq)`` total order: plain tuples for
        #: integer times (the common case; comparisons stay entirely in
        #: C) and :class:`~repro.sim.events._Entry` objects for
        #: non-integer times (their cached integer-ratio comparison beats
        #: ``Fraction`` dispatch on contended graph runs).
        self._heap: list = []
        self._seq = 0
        #: Sequence numbers of cancelled entries not yet popped (lazy
        #: deletion: the entry stays in the heap until it surfaces).
        self._dead: set = set()
        #: Number of calendar entries processed so far (monitoring hook).
        self.processed_count = 0
        #: Optional callable ``(time, entry)`` invoked before each entry
        #: runs; ``entry.fn`` and ``entry.args`` are the call about to be
        #: made (``entry`` also has ``time``, ``prio`` and ``seq``).
        self.trace_hook: Optional[Callable[[Any, Any], None]] = None
        self._active_process = None  # set by Process while executing

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> Union[int, float]:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self):
        """The :class:`~repro.sim.process.Process` currently executing, if any."""
        return self._active_process

    def peek(self) -> Union[int, float]:
        """Time of the next calendar entry, or :data:`Infinity` if empty."""
        heap = self._heap
        dead = self._dead
        while heap:
            entry = heap[0]
            if entry.__class__ is tuple:
                time, seq = entry[0], entry[2]
            else:
                time, seq = entry.time, entry.seq
            if seq in dead:
                heappop(heap)
                dead.discard(seq)
                continue
            return time
        return Infinity

    def is_empty(self) -> bool:
        """``True`` when no live calendar entries remain."""
        return self.peek() is Infinity

    # ----------------------------------------------------------- low level
    def call_at(self, time, fn: Callable[..., Any], *args: Any):
        """Schedule ``fn(*args)`` at absolute virtual ``time``.

        Returns the calendar entry, the handle :meth:`cancel` takes to
        revoke the call.  Scheduling in the past raises
        :class:`SimulationError`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}"
            )
        seq = self._seq + 1
        self._seq = seq
        if time.__class__ is int:
            entry = (time, NORMAL, seq, fn, args)
        else:
            entry = _Entry(time, NORMAL, seq, fn, args)
        heappush(self._heap, entry)
        return entry

    def call_in(self, delay, fn: Callable[..., Any], *args: Any):
        """Schedule ``fn(*args)`` after ``delay`` time units (``delay >= 0``).

        This is the protocol engine's per-event scheduling call, so it is
        :meth:`call_at` unrolled: a non-negative delay can never land in the
        past, which saves the past-check and a second method call.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self._now + delay
        seq = self._seq + 1
        self._seq = seq
        if time.__class__ is int:
            entry = (time, NORMAL, seq, fn, args)
        else:
            entry = _Entry(time, NORMAL, seq, fn, args)
        heappush(self._heap, entry)
        return entry

    def cancel(self, handle) -> None:
        """Revoke the call whose entry ``handle`` :meth:`call_in` or
        :meth:`call_at` returned.

        Cancellation is lazy: the entry's sequence number is marked dead
        and the entry is dropped when it surfaces, or when dead entries
        dominate the calendar (see :data:`_COMPACT_MIN`).  Cancelling an
        entry that already ran, or was already cancelled, is a no-op.
        """
        heap = self._heap
        if not heap or handle < heap[0]:
            # Already ran: a popped entry was the calendar's minimum, and
            # later entries are scheduled no earlier, so it ranks below
            # everything still queued (only a loop-control URGENT entry
            # queued at ``now`` can rank lower; marking a fired entry dead
            # then is merely redundant).
            return
        seq = handle[2] if handle.__class__ is tuple else handle.seq
        dead = self._dead
        if seq in dead:
            return
        dead.add(seq)
        if len(dead) >= _COMPACT_MIN and len(dead) * 2 >= len(heap):
            self._compact()

    # ---------------------------------------------------------- high level
    def schedule(self, event: Event, delay: Union[int, float] = 0,
                 priority: int = NORMAL) -> None:
        """Insert a triggered :class:`Event` into the calendar.

        Normally invoked through :meth:`Event.succeed` / :meth:`Event.fail`
        rather than directly.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._seq += 1
        time = self._now + delay
        if time.__class__ is int:
            heappush(self._heap,
                     (time, priority, self._seq, event._process, ()))
        else:
            heappush(self._heap,
                     _Entry(time, priority, self._seq, event._process, ()))

    def event(self) -> Event:
        """Create a new untriggered :class:`Event` bound to this environment."""
        return Event(self)

    def timeout(self, delay, value: Any = None) -> Timeout:
        """Create and schedule a :class:`Timeout` firing after ``delay``."""
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Start a coroutine :class:`~repro.sim.process.Process`."""
        from .process import Process

        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event that fires once *all* ``events`` have fired."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event that fires once *any* of ``events`` has fired."""
        return AnyOf(self, list(events))

    # ---------------------------------------------------------------- loop
    def step(self) -> None:
        """Process exactly one calendar entry.

        Raises :class:`SimulationError` when the calendar is empty.  Failed
        events with no registered callbacks propagate their exception out of
        the loop (they would otherwise be silently lost).
        """
        heap = self._heap
        dead = self._dead
        while True:
            if not heap:
                raise SimulationError("step() on an empty calendar")
            entry = heappop(heap)
            if entry.__class__ is tuple:
                time, _prio, seq, fn, args = entry
            else:
                time, seq, fn, args = (entry.time, entry.seq,
                                       entry.fn, entry.args)
            if seq in dead:
                dead.discard(seq)
                continue
            self._now = time
            self.processed_count += 1
            if self.trace_hook is not None:
                self.trace_hook(time, _Call._make(entry)
                                if entry.__class__ is tuple else entry)
            fn(*args)
            return

    def run(self, until: Union[None, int, float, Event] = None) -> Any:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` — run until the calendar is exhausted;
            * a number — advance the clock to that time, processing every
              entry scheduled strictly before it;
            * an :class:`Event` — run until that event has been processed and
              return its value (re-raising its exception if it failed).
        """
        if until is None:
            stop_event = None
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event._ok_value()
            stop_event.callbacks.append(self._stop_on_event)
        else:
            if until < self._now:
                raise SimulationError(
                    f"run(until={until!r}) is in the past (now={self._now!r})"
                )
            stop_event = None
            self._seq += 1
            if until.__class__ is int:
                heappush(self._heap,
                         (until, URGENT, self._seq, self._stop_at, ()))
            else:
                heappush(self._heap,
                         _Entry(until, URGENT, self._seq, self._stop_at, ()))

        # The event loop proper.  This duplicates :meth:`step` deliberately:
        # inlining the dispatch into one tight loop (with the heap, the dead
        # set and ``heappop`` bound to locals) removes two method calls and
        # several attribute loads per calendar entry, which is where the
        # bulk of the kernel's per-event cost lives.  Any behavioural change
        # here must be mirrored in :meth:`step`.
        heap = self._heap
        dead = self._dead
        pop = heappop
        tuple_cls = tuple
        as_call = _Call._make
        try:
            while heap:
                entry = pop(heap)
                if entry.__class__ is tuple_cls:
                    time, _prio, seq, fn, args = entry
                else:
                    time, seq, fn, args = (entry.time, entry.seq,
                                           entry.fn, entry.args)
                if dead and seq in dead:
                    dead.discard(seq)
                    continue
                self._now = time
                self.processed_count += 1
                if self.trace_hook is not None:
                    self.trace_hook(time, as_call(entry)
                                    if entry.__class__ is tuple_cls else entry)
                fn(*args)
        except _StopRun as stop:
            return stop.value
        if isinstance(until, Event):
            raise SimulationError(
                "run() terminated: calendar exhausted before the 'until' "
                "event was triggered"
            )
        if until is not None:
            # Heap drained before reaching the stop time: clock jumps to it.
            self._now = until
        return None

    # Internal ----------------------------------------------------------
    def _compact(self) -> None:
        """Rebuild the calendar without cancelled entries.

        Lazy deletion leaves cancelled entries in the heap until they are
        popped; once they outnumber live entries (see :data:`_COMPACT_MIN`)
        the heap is filtered and re-heapified in one O(n) pass.  Entry order
        is untouched — ordering lives in the ``(time, priority, seq)``
        prefix — so compaction never changes what runs when.
        """
        heap = self._heap
        dead = self._dead
        # In place, list and set alike: the inlined loop in :meth:`run`
        # holds local references to both across callbacks.
        heap[:] = [entry for entry in heap
                   if (entry[2] if entry.__class__ is tuple else entry.seq)
                   not in dead]
        heapify(heap)
        dead.clear()

    def _stop_at(self) -> None:
        raise _StopRun(None)

    def _stop_on_event(self, event: Event) -> None:
        if event.failed and not event.defused:
            event.defused = True
            raise event._value from None
        raise _StopRun(event._value if event._value is not PENDING else None)
