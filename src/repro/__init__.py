"""repro — bandwidth-centric autonomous scheduling on tree overlays.

A complete, from-scratch reproduction of *"Autonomous Protocols for
Bandwidth-Centric Scheduling of Independent-task Applications"*
(Kreaseck, Carter, Casanova, Ferrante — IPDPS 2003), including:

* :mod:`repro.sim` — a discrete-event simulation kernel (SimGrid substitute),
* :mod:`repro.platform` — node/edge-weighted platform trees, the paper's
  random generator, dynamic mutations, churn, fault schedules, overlays,
* :mod:`repro.steady_state` — the optimal steady-state theory (Theorem 1 and
  the bottom-up tree solver) in exact rational arithmetic,
* :mod:`repro.protocols` — the autonomous non-interruptible (non-IC) and
  interruptible (IC) communication protocols plus ablation baselines,
* :mod:`repro.metrics` — windowed throughput, steady-state onset detection,
  buffer and used-subtree statistics, fault-recovery reports,
* :mod:`repro.experiments` — harness regenerating every table and figure of
  the paper's evaluation section,
* :mod:`repro.harness` — crash-safe sweep infrastructure: checkpointed
  journals, a supervised worker pool with per-seed retry/backoff, and
  resume of interrupted ensembles (:class:`~repro.harness.HarnessConfig`),
* :mod:`repro.telemetry` — disabled-by-default observability: a metrics
  registry, read-only run probes, JSONL/CSV/Perfetto exporters, and
  ensemble aggregation (:class:`~repro.telemetry.TelemetryConfig`),
* :mod:`repro.service` — service mode: open-loop streaming arrival
  processes, admission control, and O(1)-memory latency SLO folds
  (:class:`~repro.service.PoissonArrivals`,
  :class:`~repro.service.TokenBucket`,
  :class:`~repro.service.ServiceStats`).

Quickstart::

    from repro import generate_tree, solve_tree, simulate, ProtocolConfig

    tree = generate_tree(seed=7)
    optimal = solve_tree(tree)
    result = simulate(tree, 2000, ProtocolConfig.interruptible(buffers=3))
    print(result.makespan, float(optimal.rate))

Concurrent applications share the platform through the same front door::

    from repro import Application

    apps = [Application(1000, name="alpha"), Application(1000, name="beta")]
    result = simulate(tree, apps, config, allocator="selfish")
    print(result.jain_index, result.price_of_anarchy)

Fault injection and recovery metrics are first-class::

    from repro import CrashEvent, FaultSchedule, recovery_report

    faults = FaultSchedule([CrashEvent(at_time=200, node=3)])
    report = recovery_report(simulate(tree, 2000, config, faults=faults))
"""

from importlib import import_module

from ._version import __version__
from .errors import (
    ExperimentError,
    PlatformError,
    ProtocolError,
    ReproError,
    SimulationError,
    SolverError,
)

#: Declarative lazy-export table: public name → defining module.  Names
#: resolve (and the submodule imports) on first attribute access, keeping
#: ``import repro`` cheap; resolved names are cached in module globals.
_LAZY_EXPORTS = {
    # platform model
    "PlatformTree": "repro.platform.tree",
    "TreeNode": "repro.platform.tree",
    "PlatformGraph": "repro.platform.graph",
    "Overlay": "repro.platform.graph",
    "generate_platform": "repro.platform.graph",
    "LinkContention": "repro.platform.contention",
    "max_min_rates": "repro.platform.contention",
    "fair_share_rates": "repro.platform.contention",
    "selfish_rates": "repro.platform.contention",
    "generate_tree": "repro.platform.generator",
    "TreeGeneratorParams": "repro.platform.generator",
    "Mutation": "repro.platform.mutation",
    "MutationSchedule": "repro.platform.mutation",
    "ChurnSchedule": "repro.platform.churn",
    "JoinEvent": "repro.platform.churn",
    "LeaveEvent": "repro.platform.churn",
    # fault injection (PR-1 surface; graph events and chaos in PR-8)
    "FaultSchedule": "repro.platform.faults",
    "CrashEvent": "repro.platform.faults",
    "LinkFailureEvent": "repro.platform.faults",
    "LinkRepairEvent": "repro.platform.faults",
    "EdgeFailureEvent": "repro.platform.faults",
    "EdgeRepairEvent": "repro.platform.faults",
    "SwitchCrashEvent": "repro.platform.faults",
    "DegradeEvent": "repro.platform.faults",
    "chaos_schedule": "repro.platform.faults",
    "GraphFaultDriver": "repro.protocols.graph_engine",
    # steady-state theory
    "solve_tree": "repro.steady_state",
    "solve_fork": "repro.steady_state",
    "SteadyStateSolution": "repro.steady_state",
    "ForkSolution": "repro.steady_state",
    # unified simulation front door
    "simulate": "repro.api",
    # multi-application scheduling
    "Application": "repro.apps",
    "Workload": "repro.apps",
    "AppResult": "repro.apps",
    "MultiAppEngine": "repro.apps",
    "jain_index": "repro.apps",
    "price_of_anarchy": "repro.apps",
    "fault_fairness": "repro.apps",
    # protocols
    "ProtocolConfig": "repro.protocols",
    "ProtocolEngine": "repro.protocols",
    "GraphProtocolEngine": "repro.protocols",
    "ProtocolVariant": "repro.protocols",
    "PriorityRule": "repro.protocols",
    "SimulationResult": "repro.protocols",
    "Tracer": "repro.protocols",
    "TraceEvent": "repro.protocols",
    "ascii_gantt": "repro.protocols",
    # steady-state warp
    "WarpSummary": "repro.sim.warp",
    "WarpController": "repro.sim.warp",
    "steady_state_rate": "repro.metrics.windows",
    "node_utilization": "repro.metrics.usage",
    # recovery metrics (PR-1 surface)
    "RecoveryReport": "repro.metrics.faults",
    "recovery_report": "repro.metrics.faults",
    "recovery_latencies": "repro.metrics.faults",
    "post_recovery_rate": "repro.metrics.faults",
    "degraded_windows": "repro.metrics.faults",
    # service mode: open-loop arrivals, admission control, latency SLOs
    "ArrivalProcess": "repro.service",
    "PoissonArrivals": "repro.service",
    "BurstArrivals": "repro.service",
    "DiurnalArrivals": "repro.service",
    "PeriodicArrivals": "repro.service",
    "parse_arrivals": "repro.service",
    "AdmissionPolicy": "repro.service",
    "AlwaysAdmit": "repro.service",
    "QueueDepthBound": "repro.service",
    "TokenBucket": "repro.service",
    "parse_admission": "repro.service",
    "LatencySketch": "repro.service",
    "ServiceStats": "repro.service",
    # telemetry subsystem
    "TelemetryConfig": "repro.telemetry",
    "TelemetrySnapshot": "repro.telemetry",
    "MetricsRegistry": "repro.telemetry",
    "NullRegistry": "repro.telemetry",
    "aggregate_snapshots": "repro.telemetry",
    "chrome_trace": "repro.telemetry",
    "write_chrome_trace": "repro.telemetry",
    "dump_jsonl": "repro.telemetry",
    "load_jsonl": "repro.telemetry",
    # experiment harness
    "ExperimentScale": "repro.experiments.common",
    # crash-safe sweep harness
    "HarnessConfig": "repro.harness",
    "RetryPolicy": "repro.harness",
    "RunCoverage": "repro.harness",
    "SeedFailure": "repro.harness",
    "CheckpointStore": "repro.harness",
}

__all__ = [
    "__version__",
    "ReproError",
    "SimulationError",
    "PlatformError",
    "SolverError",
    "ProtocolError",
    "ExperimentError",
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name):
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}") from None
    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
