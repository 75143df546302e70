"""Discrete-event simulation kernel: the calendar and its event loop.

This module is the substrate that replaces the SimGrid toolkit used in the
paper.  The reproduction needs three things from it: ordered event
delivery, timed activities that can be cancelled, and virtual (integer- or
float-valued) time.  :class:`Environment` provides exactly those through a
binary-heap calendar and a callback API: :meth:`Environment.call_in` /
:meth:`Environment.call_at` schedule ``fn(*args)`` and return the calendar
entry itself as the handle :meth:`Environment.cancel` revokes, and
:meth:`Environment.run` dispatches entries in order.

Every entry is ``(time, priority, seq, fn, args)``.  Determinism: entries
are ordered by ``(time, priority, sequence)`` where the sequence number
increases monotonically with scheduling order, so runs with the same seed
replay identically.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional, Union

from ..errors import SimulationError

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


class _Entry:
    """A calendar slot for a *non-integer* time, ordered by
    ``(time, priority, sequence)``, carrying the call ``fn(*args)`` it runs.

    The calendar is a mixed heap: integer-time slots are plain
    ``(time, prio, seq, fn, args)`` tuples whose comparisons run entirely
    in C (``seq`` is unique, so they never reach ``fn``), and only
    non-integer times (Fraction times on contended graph runs, float
    times in user code) get one of these.  Tuple entries pay
    ``Fraction.__eq__`` *and* ``Fraction.__lt__`` — each a
    generic-dispatch call — per sift step once fractional times appear,
    which is the kernel's single hottest operation on contended runs.
    The entry instead caches the time's exact integer ratio at
    construction and compares by integer cross-multiplication, with a
    float pre-filter in front: float division of two ints is correctly
    rounded, and correct rounding is monotone, so ``approx(a) <
    approx(b)`` already proves ``a < b`` — only *equal* approximations
    fall through to the exact cross-multiply.

    Cross-type comparisons ride Python's reflected-operator fallback:
    ``tuple.__lt__`` returns ``NotImplemented`` for a non-tuple operand,
    so ``tuple < entry`` lands in :meth:`__gt__` below.  Every order is
    mathematically identical to the pure-tuple order for int, float and
    Fraction times alike (``as_integer_ratio`` is exact for all three),
    which is what keeps calendars — and fingerprints — bit-identical.
    """

    __slots__ = ("approx", "num", "den", "prio", "seq", "time", "fn", "args")

    def __init__(self, time, prio, seq, fn, args):
        self.time = time
        self.prio = prio
        self.seq = seq
        self.fn = fn
        self.args = args
        try:
            num, den = time.as_integer_ratio()
        except (OverflowError, ValueError):
            # Infinite (or NaN) float time: den == 0 makes the exact
            # comparison below rank it after every finite time.
            num, den = (1 if time > 0 else -1), 0
        self.num = num
        self.den = den
        try:
            self.approx = num / den
        except (OverflowError, ZeroDivisionError):
            self.approx = float("inf") if num > 0 else float("-inf")

    def __lt__(self, other) -> bool:
        if other.__class__ is tuple:  # int-time slot
            lhs = self.num
            rhs = other[0] * self.den
            if lhs != rhs:
                return lhs < rhs
            if self.prio != other[1]:
                return self.prio < other[1]
            return self.seq < other[2]
        a = self.approx
        b = other.approx
        if a < b:
            return True
        if b < a:
            return False
        lhs = self.num * other.den
        rhs = other.num * self.den
        if lhs != rhs:
            return lhs < rhs
        if self.prio != other.prio:
            return self.prio < other.prio
        return self.seq < other.seq

    def __gt__(self, other) -> bool:
        # Reflected form of ``tuple < entry`` (and ``sorted`` symmetry).
        if other.__class__ is tuple:
            lhs = self.num
            rhs = other[0] * self.den
            if lhs != rhs:
                return lhs > rhs
            if self.prio != other[1]:
                return self.prio > other[1]
            return self.seq > other[2]
        return other.__lt__(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<_Entry t={self.time!r} prio={self.prio} "
                f"seq={self.seq} {self.fn!r}>")


class _StopRun(Exception):
    """Internal control-flow exception used by ``run(until=...)``."""


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
        #: C) and :class:`_Entry` objects for non-integer times (their
        #: cached integer-ratio comparison beats ``Fraction`` dispatch on
        #: contended graph runs).
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

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> Union[int, float]:
        """Current virtual time."""
        return self._now

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

    # ---------------------------------------------------------- schedule
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

    # ---------------------------------------------------------------- loop
    def run(self, until: Union[None, int, float] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` — run until the calendar is exhausted;
            * a number — advance the clock to that time, processing every
              entry scheduled strictly before it.
        """
        if until is not None:
            if until < self._now:
                raise SimulationError(
                    f"run(until={until!r}) is in the past (now={self._now!r})"
                )
            self._seq += 1
            if until.__class__ is int:
                heappush(self._heap,
                         (until, URGENT, self._seq, self._stop_at, ()))
            else:
                heappush(self._heap,
                         _Entry(until, URGENT, self._seq, self._stop_at, ()))

        # The event loop proper, in one tight loop with the heap, the dead
        # set and ``heappop`` bound to locals: per-entry attribute loads
        # and method calls are where the bulk of the kernel's per-event
        # cost lives.
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
        except _StopRun:
            return
        if until is not None:
            # Heap drained before reaching the stop time: clock jumps to it.
            self._now = until

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
        raise _StopRun
