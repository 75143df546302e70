"""External event ledger for the traced benchmark run.

Everything here observes the simulator from outside, through two public
seams, so the program under test is unchanged:

* :attr:`repro.sim.Environment.trace_hook` is called once before every
  calendar entry runs.  :class:`Ledger` counts entries by the callback's
  function and charges each entry the host time from its hook call to the
  next one (its *self time*), minus the time spent in wrapped contention
  calls, which is charged to the contention layer instead.
* :class:`TimedContention` is a :class:`LinkContention` whose public
  methods time themselves into a ledger.  The graph engine accepts it
  through its ``contention=`` argument, and its fault driver shares it.

Self time is folded into layers by the module that defines the callback
(:func:`layer_of`).  Time between ``run()`` starting and the first event
(the engine arming its agents) and after the last event (result
collection) is charged to the engine layer.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Dict

from repro.platform.contention import LinkContention

#: Module prefix -> layer name; the first matching prefix wins.
_LAYERS = (
    ("repro.protocols.agents", "agents"),
    ("repro.protocols.engine", "engine"),
    ("repro.protocols.graph_engine", "engine"),
    ("repro.service", "service"),
    ("repro.platform.contention", "contention"),
    ("repro.sim", "sim"),
)


def layer_of(module: str) -> str:
    """The layer a callback defined in ``module`` belongs to."""
    for prefix, layer in _LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


class Ledger:
    """Counts calendar entries by callback and measures their self time.

    One ledger may span several runs: call :meth:`attach` before each
    ``engine.run()`` and :meth:`close` right after it.
    """

    def __init__(self):
        self._counts: Dict[object, int] = {}
        self._self_s: Dict[object, float] = {}
        self._current = None
        self._since = 0.0
        self._depth = 0
        self.contention_calls = 0
        self.contention_s = 0.0

    def attach(self, engine) -> None:
        """Hook ``engine``'s calendar; the engine's own arming counts as
        engine self time until the first entry fires."""
        engine.env.trace_hook = self.hook
        self._current = "engine"  # a layer name stands in for a callback
        self._since = perf_counter()

    def hook(self, _time, item) -> None:
        self._charge(perf_counter())
        fn = getattr(item, "fn", None)
        if fn is None:  # a high-level Event rather than a Timer
            fn = type(item)
        fn = getattr(fn, "__func__", fn)
        self._counts[fn] = self._counts.get(fn, 0) + 1
        self._current = fn
        self._since = perf_counter()

    def close(self) -> None:
        """Charge the time since the last entry and stop measuring."""
        self._charge(perf_counter())
        self._current = None

    def _charge(self, now: float) -> None:
        """Add the time since ``_since`` to the current callback."""
        current = self._current
        self._self_s[current] = (self._self_s.get(current, 0.0)
                                 + (now - self._since))

    def timed(self, method, args, kwargs):
        """Run a contention ``method``, charging its host time to the
        contention layer and taking it out of the enclosing event.

        Only the outermost call counts: ``pause`` calls ``finish``
        internally, and that is one call into the layer, not two.
        """
        if self._depth:
            return method(*args, **kwargs)
        self._depth = 1
        start = perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            spent = perf_counter() - start
            self._depth = 0
            self.contention_calls += 1
            self.contention_s += spent
            self._since += spent

    def counts(self) -> Counter:
        """Entries per callback, keyed ``Class._method`` (the qualname)."""
        out: Counter = Counter()
        for fn, n in self._counts.items():
            out[fn.__qualname__] += n
        return out

    def layer_self_s(self) -> Dict[str, float]:
        """Host seconds per layer (contention included)."""
        out: Dict[str, float] = {"contention": self.contention_s}
        for fn, seconds in self._self_s.items():
            layer = fn if isinstance(fn, str) else layer_of(fn.__module__)
            out[layer] = out.get(layer, 0.0) + seconds
        return out


class TimedContention(LinkContention):
    """A :class:`LinkContention` whose public calls time themselves into
    a :class:`Ledger`; results are those of the plain solver."""

    __slots__ = ("ledger",)

    def __init__(self, capacities, mode, ledger: Ledger):
        super().__init__(capacities, mode)
        self.ledger = ledger

    def start(self, *args, **kwargs):
        return self.ledger.timed(super().start, args, kwargs)

    def finish(self, *args, **kwargs):
        return self.ledger.timed(super().finish, args, kwargs)

    def pause(self, *args, **kwargs):
        return self.ledger.timed(super().pause, args, kwargs)

    def remaining_volume(self, *args, **kwargs):
        return self.ledger.timed(super().remaining_volume, args, kwargs)

    def kill_crossing(self, *args, **kwargs):
        return self.ledger.timed(super().kill_crossing, args, kwargs)

    def set_capacity(self, *args, **kwargs):
        return self.ledger.timed(super().set_capacity, args, kwargs)
