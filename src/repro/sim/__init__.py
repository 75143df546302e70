"""Discrete-event simulation kernel (the paper's SimGrid substitute).

Public surface::

    from repro.sim import Environment, Interrupt, Process
    from repro.sim import Resource, PriorityResource, PreemptiveResource
    from repro.sim import Store, FilterStore, PriorityStore

Quick example::

    env = Environment()

    def worker(env, results):
        yield env.timeout(3)
        results.append(env.now)

    results = []
    env.process(worker(env, results))
    env.run()
    assert results == [3]
"""

from .core import Environment, Infinity
from .events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .process import Interrupt, Process
from .resources import (
    Preempted,
    PreemptiveResource,
    PriorityRequest,
    PriorityResource,
    Release,
    Request,
    Resource,
)
from .store import FilterStore, PriorityItem, PriorityStore, Store
from . import monitor

__all__ = [
    "Environment",
    "Infinity",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Process",
    "Interrupt",
    "Resource",
    "PriorityResource",
    "PreemptiveResource",
    "Preempted",
    "Request",
    "PriorityRequest",
    "Release",
    "Store",
    "FilterStore",
    "PriorityStore",
    "PriorityItem",
    "monitor",
]
