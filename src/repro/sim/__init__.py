"""Discrete-event simulation kernel (the paper's SimGrid substitute).

Public surface::

    from repro.sim import Environment, Infinity

Quick example::

    env = Environment()
    results = []
    env.call_in(3, lambda: results.append(env.now))
    env.run()
    assert results == [3]

:mod:`repro.sim.warp` adds steady-state fast-forward on top of the
calendar.
"""

from .core import Environment, Infinity

__all__ = ["Environment", "Infinity"]
