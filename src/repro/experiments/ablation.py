"""Ablation experiments beyond the paper's evaluation.

* :func:`priority_rules` — what the bandwidth-centric ordering buys over
  FIFO and compute-centric ordering (the design choice §2.1 argues for).
* :func:`overlay_strategies` — how the overlay tree construction (the §6
  future-work question) affects the achievable optimal rate on random
  physical topologies.
* :func:`buffer_decay_ablation` — §2.2's "optimally, buffer decay": effect
  of decay on reached-optimal rates and buffer pools.
* :func:`churn_resilience` — §6's dynamically evolving pools: joins and
  graceful departures under IC/FB=3.
* :func:`fault_recovery` — abrupt failures (crashes and link outages with
  in-flight task loss) and the autonomous recovery protocol's cost:
  re-executed tasks, detection latency, and post-recovery throughput
  against the surviving platform's optimal rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..harness import HarnessConfig, RunCoverage, run_seeds
from ..metrics import detect_onset, percentage_reached
from ..platform.generator import PAPER_DEFAULTS, TreeGeneratorParams, generate_tree
from ..platform.overlay import PhysicalTopology, compare_overlays
from ..api import simulate
from ..protocols import PriorityRule, ProtocolConfig
from ..steady_state import solve_tree
from .common import ExperimentScale
from .reporting import fmt_num, fmt_pct, format_table

__all__ = [
    "PriorityAblationResult",
    "priority_rules",
    "format_priority_result",
    "OverlayAblationResult",
    "overlay_strategies",
    "format_overlay_result",
    "DecayAblationResult",
    "buffer_decay_ablation",
    "format_decay_result",
    "ChurnResilienceResult",
    "churn_resilience",
    "format_churn_result",
    "FaultRecoveryResult",
    "fault_recovery",
    "format_fault_result",
    "MultiAppAblationResult",
    "multi_app",
    "format_multi_app_result",
]

def _map_seeds(worker: Callable, seeds: Sequence[int], progress,
               workers: int, *, harness: Optional[HarnessConfig] = None,
               experiment: str = "ablation",
               config_parts: Tuple = ()) -> Tuple[List, Optional[RunCoverage]]:
    """Run ``worker(seed)`` for every seed under the crash-safe harness.

    Results come back in seed order whether serial or parallel, so
    ``workers=1`` and ``workers=N`` produce identical ablation results (the
    per-seed work is independent and internally deterministic).  With a
    ``harness``, worker death and per-seed errors are retried and finally
    recorded as structured failures (see :mod:`repro.harness`); the second
    return value is then the :class:`~repro.harness.RunCoverage` report.
    Without one, the first error propagates — the pre-harness behaviour —
    but Ctrl-C still cancels pending futures instead of hanging on
    orphaned workers.
    """
    outcome = run_seeds(worker, seeds, experiment=experiment,
                        config_parts=config_parts, harness=harness,
                        workers=workers, progress=progress)
    return list(outcome.values), (outcome.coverage if harness is not None
                                  else None)


PRIORITY_CONFIGS: Tuple[ProtocolConfig, ...] = (
    ProtocolConfig.non_interruptible(3, buffer_growth=False),
    ProtocolConfig.non_interruptible(
        3, buffer_growth=False, priority_rule=PriorityRule.COMPUTE_CENTRIC),
    ProtocolConfig.non_interruptible(
        3, buffer_growth=False, priority_rule=PriorityRule.FIFO),
)


@dataclass(frozen=True)
class PriorityAblationResult:
    scale: ExperimentScale
    #: label → % of trees reaching optimal steady state.
    reached: Dict[str, float]
    #: label → mean normalized steady-window rate.
    mean_normalized_rate: Dict[str, float]
    #: Crash-safety coverage report (``None`` when run without a harness).
    coverage: Optional[RunCoverage] = None


def _priority_seed(seed: int, *, params: TreeGeneratorParams, tasks: int,
                   threshold: int) -> Dict[str, Tuple[Optional[int], float]]:
    """Per-tree measurements for :func:`priority_rules` (picklable)."""
    tree = generate_tree(params, seed=seed)
    optimal = solve_tree(tree).rate
    out: Dict[str, Tuple[Optional[int], float]] = {}
    for config in PRIORITY_CONFIGS:
        result = simulate(tree, tasks, config)
        onset = detect_onset(result.completion_times, optimal, threshold)
        times = result.completion_times
        x = len(times) // 3
        rate = Fraction(x, times[2 * x - 1] - times[x - 1])
        out[config.label] = (onset, float(rate / optimal))
    return out


def priority_rules(scale: ExperimentScale = ExperimentScale(),
                   params: TreeGeneratorParams = PAPER_DEFAULTS,
                   *, progress=None, workers: int = 1,
                   harness: Optional[HarnessConfig] = None
                   ) -> PriorityAblationResult:
    """Compare child-ordering rules over a random ensemble."""
    worker = partial(_priority_seed, params=params, tasks=scale.tasks,
                     threshold=scale.threshold)
    seeds = [scale.base_seed + i for i in range(scale.trees)]
    onsets: Dict[str, List] = {c.label: [] for c in PRIORITY_CONFIGS}
    norms: Dict[str, List[float]] = {c.label: [] for c in PRIORITY_CONFIGS}
    per_seed, coverage = _map_seeds(
        worker, seeds, progress, workers, harness=harness,
        experiment="priorities",
        config_parts=(params, scale.tasks, scale.threshold))
    for per_label in per_seed:
        for label, (onset, norm) in per_label.items():
            onsets[label].append(onset)
            norms[label].append(norm)
    return PriorityAblationResult(
        scale=scale,
        reached={k: percentage_reached(v) for k, v in onsets.items()},
        mean_normalized_rate={k: sum(v) / len(v) for k, v in norms.items()},
        coverage=coverage,
    )


def format_priority_result(result: PriorityAblationResult) -> str:
    rows = [[label, fmt_pct(result.reached[label]),
             fmt_num(result.mean_normalized_rate[label])]
            for label in result.reached]
    return format_table(
        ["priority rule", "reached optimal", "mean normalized steady rate"],
        rows,
        title=(f"Ablation — child-ordering rules ({result.scale.trees} trees, "
               f"{result.scale.tasks} tasks)"))


@dataclass(frozen=True)
class OverlayAblationResult:
    graphs: int
    #: strategy → mean optimal rate (normalized to the best strategy per graph).
    mean_relative_rate: Dict[str, float]
    #: strategy → how often it produced the best tree.
    wins: Dict[str, int]
    #: Crash-safety coverage report (``None`` when run without a harness).
    coverage: Optional[RunCoverage] = None


def _random_topology(rng: random.Random, hosts: int) -> PhysicalTopology:
    """Connected random host graph: a random tree plus extra chords."""
    w = [rng.randint(10, 1000) for _ in range(hosts)]
    links = []
    for node in range(1, hosts):
        links.append((rng.randrange(node), node, rng.randint(1, 100)))
    extra = hosts // 2
    for _ in range(extra):
        u, v = rng.randrange(hosts), rng.randrange(hosts)
        if u != v:
            links.append((u, v, rng.randint(1, 100)))
    return PhysicalTopology(w, links)


def _overlay_seed(seed: int, *,
                  hosts: int) -> Tuple[str, Dict[str, float]]:
    """Per-graph measurements for :func:`overlay_strategies` (picklable)."""
    rng = random.Random(seed)
    topology = _random_topology(rng, hosts)
    rows = compare_overlays(topology, seed=seed)
    best = rows[0].rate
    return rows[0].strategy, {row.strategy: row.rate / best for row in rows}


#: Graph-ensemble size used when :func:`overlay_strategies` gets no scale.
DEFAULT_OVERLAY_GRAPHS = 30


def overlay_strategies(scale: Optional[ExperimentScale] = None,
                       *, hosts: int = 40, progress=None, workers: int = 1,
                       harness: Optional[HarnessConfig] = None
                       ) -> OverlayAblationResult:
    """Compare overlay constructions by achievable optimal rate.

    Takes the unified signature ``run(scale, *, progress=None, workers=1)``;
    ``scale.trees`` is the number of random physical topologies and
    ``scale.tasks`` is unused (no simulation happens — only the solver).
    """
    if scale is None:
        graphs, base_seed = DEFAULT_OVERLAY_GRAPHS, 0
    else:
        graphs, base_seed = scale.trees, scale.base_seed

    worker = partial(_overlay_seed, hosts=hosts)
    seeds = [base_seed + i for i in range(graphs)]
    totals: Dict[str, float] = {}
    wins: Dict[str, int] = {}
    per_seed, coverage = _map_seeds(worker, seeds, progress, workers,
                                    harness=harness, experiment="overlays",
                                    config_parts=(hosts,))
    measured = len(per_seed)
    for winner, relative in per_seed:
        wins[winner] = wins.get(winner, 0) + 1
        for strategy, value in relative.items():
            totals[strategy] = totals.get(strategy, 0.0) + value
    return OverlayAblationResult(
        graphs=graphs,
        mean_relative_rate={k: v / measured
                            for k, v in sorted(totals.items())},
        wins=wins,
        coverage=coverage,
    )


def format_overlay_result(result: OverlayAblationResult) -> str:
    rows = [[strategy, fmt_num(rel), result.wins.get(strategy, 0)]
            for strategy, rel in sorted(result.mean_relative_rate.items(),
                                        key=lambda kv: -kv[1])]
    return format_table(
        ["overlay strategy", "mean rate vs best", "wins"],
        rows,
        title=(f"Ablation — overlay construction on {result.graphs} random "
               "physical topologies (§6 future work)"))


@dataclass(frozen=True)
class DecayAblationResult:
    """Decay on/off comparison for the growing non-IC protocol."""

    scale: ExperimentScale
    #: variant label → % of trees that reached optimal steady state.
    reached: Dict[str, float]
    #: variant label → mean buffer-pool high-water across trees.
    mean_max_pool: Dict[str, float]
    #: variant label → total buffers shed by decay (0 for the off variant).
    decayed: Dict[str, int]
    #: Crash-safety coverage report (``None`` when run without a harness).
    coverage: Optional[RunCoverage] = None


_DECAY_VARIANTS = (
    ("non-IC, IB=1", ProtocolConfig.non_interruptible()),
    ("non-IC, IB=1 +decay",
     ProtocolConfig.non_interruptible(buffer_decay=True)),
)


def _decay_seed(seed: int, *, params: TreeGeneratorParams, tasks: int,
                threshold: int) -> Dict[str, Tuple[Optional[int], int, int]]:
    """Per-tree measurements for :func:`buffer_decay_ablation` (picklable)."""
    tree = generate_tree(params, seed=seed)
    optimal = solve_tree(tree).rate
    out: Dict[str, Tuple[Optional[int], int, int]] = {}
    for label, config in _DECAY_VARIANTS:
        result = simulate(tree, tasks, config)
        onset = detect_onset(result.completion_times, optimal, threshold)
        out[label] = (onset, result.max_buffers, result.buffers_decayed)
    return out


def buffer_decay_ablation(scale: ExperimentScale = ExperimentScale(),
                          params: TreeGeneratorParams = PAPER_DEFAULTS,
                          *, progress=None, workers: int = 1,
                          harness: Optional[HarnessConfig] = None
                          ) -> DecayAblationResult:
    """Quantify §2.2's "optimally, buffer decay" over a random ensemble."""
    worker = partial(_decay_seed, params=params, tasks=scale.tasks,
                     threshold=scale.threshold)
    seeds = [scale.base_seed + i for i in range(scale.trees)]
    onsets: Dict[str, List] = {label: [] for label, _cfg in _DECAY_VARIANTS}
    pools: Dict[str, List[int]] = {label: [] for label, _cfg in _DECAY_VARIANTS}
    decayed: Dict[str, int] = {label: 0 for label, _cfg in _DECAY_VARIANTS}
    per_seed, coverage = _map_seeds(
        worker, seeds, progress, workers, harness=harness, experiment="decay",
        config_parts=(params, scale.tasks, scale.threshold))
    for per_label in per_seed:
        for label, (onset, pool, shed) in per_label.items():
            onsets[label].append(onset)
            pools[label].append(pool)
            decayed[label] += shed
    return DecayAblationResult(
        scale=scale,
        reached={k: percentage_reached(v) for k, v in onsets.items()},
        mean_max_pool={k: sum(v) / len(v) for k, v in pools.items()},
        decayed=decayed,
        coverage=coverage,
    )


def format_decay_result(result: DecayAblationResult) -> str:
    rows = [[label, fmt_pct(result.reached[label]),
             fmt_num(result.mean_max_pool[label], 1),
             result.decayed[label]]
            for label in result.reached]
    return format_table(
        ["variant", "reached optimal", "mean max pool", "buffers decayed"],
        rows,
        title=(f"Ablation — buffer decay ({result.scale.trees} trees, "
               f"{result.scale.tasks} tasks)"))


@dataclass(frozen=True)
class ChurnResilienceResult:
    """Join/leave resilience of IC/FB=3 over a random ensemble."""

    scale: ExperimentScale
    #: Per-tree normalized mid-run rate after a cluster join.
    join_norms: Tuple[float, ...]
    #: All tasks conserved in every join and leave scenario.
    all_conserved: bool
    #: Every leave scenario produced at least one graceful departure.
    all_departed: bool
    #: Crash-safety coverage report (``None`` when run without a harness).
    coverage: Optional[RunCoverage] = None

    @property
    def mean_join_norm(self) -> float:
        return sum(self.join_norms) / len(self.join_norms)

    @property
    def within_ten_percent(self) -> int:
        return sum(1 for n in self.join_norms if 0.9 <= n <= 1.1)


def _churn_seed(seed: int, *, params: TreeGeneratorParams,
                tasks: int) -> Tuple[float, bool, bool]:
    """Per-tree join/leave measurements for :func:`churn_resilience`."""
    from ..platform import ChurnSchedule, JoinEvent, LeaveEvent
    from ..platform.tree import PlatformTree

    config = ProtocolConfig.interruptible(3)
    base = generate_tree(params, seed=seed)
    cluster = PlatformTree([3, 2, 2], [(0, 1, 1), (0, 2, 1)])
    join = ChurnSchedule([
        JoinEvent(at_time=200, parent=base.root, subtree=cluster,
                  attach_cost=1)])
    result = simulate(base, tasks, config, churn=join)
    grown_optimal = solve_tree(result.tree).rate
    times = result.completion_times
    lo, hi = tasks // 2, (3 * tasks) // 4
    mid = Fraction(hi - lo, times[hi - 1] - times[lo - 1])
    norm = float(mid / grown_optimal)
    conserved = sum(result.per_node_computed) == tasks

    victim = base.children[base.root][0]
    leave = ChurnSchedule([LeaveEvent(at_time=200, node=victim)])
    leave_result = simulate(base, tasks, config, churn=leave)
    conserved &= sum(leave_result.per_node_computed) == tasks
    departed = len(leave_result.departed_node_ids) >= 1
    return norm, conserved, departed


def churn_resilience(scale: ExperimentScale = ExperimentScale(),
                     params: TreeGeneratorParams = PAPER_DEFAULTS,
                     *, progress=None, workers: int = 1,
                     harness: Optional[HarnessConfig] = None
                     ) -> ChurnResilienceResult:
    """Measure §6's dynamically-evolving-pool resilience under IC/FB=3."""
    worker = partial(_churn_seed, params=params, tasks=scale.tasks)
    seeds = [scale.base_seed + i for i in range(scale.trees)]
    norms: List[float] = []
    conserved = True
    departed = True
    per_seed, coverage = _map_seeds(worker, seeds, progress, workers,
                                    harness=harness, experiment="churn",
                                    config_parts=(params, scale.tasks))
    for norm, seed_conserved, seed_departed in per_seed:
        norms.append(norm)
        conserved &= seed_conserved
        departed &= seed_departed
    return ChurnResilienceResult(
        scale=scale, join_norms=tuple(norms),
        all_conserved=conserved, all_departed=departed, coverage=coverage)


def format_churn_result(result: ChurnResilienceResult) -> str:
    return (
        f"Ablation — churn resilience (IC/FB=3, {result.scale.trees} trees, "
        f"{result.scale.tasks} tasks)\n"
        f"{'=' * 60}\n"
        f"tasks conserved in every join/leave scenario : "
        f"{result.all_conserved}\n"
        f"graceful departures on every leave           : "
        f"{result.all_departed}\n"
        f"mid-run rate / grown-platform optimal        : mean "
        f"{result.mean_join_norm:.3f}, within +-10% on "
        f"{result.within_ten_percent}/{len(result.join_norms)} trees")


@dataclass(frozen=True)
class FaultRecoveryResult:
    """Crash/outage recovery behaviour of IC/FB=3 over a random ensemble."""

    scale: ExperimentScale
    #: Per-tree post-recovery rate / surviving-platform optimal rate.
    efficiencies: Tuple[float, ...]
    #: Per-crash detection-to-reclaim latency (virtual time).
    latencies: Tuple[int, ...]
    total_reexecuted: int
    total_wasted: int
    #: Every run completed all its tasks despite the failures.
    all_completed: bool
    #: Crash-safety coverage report (``None`` when run without a harness).
    coverage: Optional[RunCoverage] = None

    @property
    def mean_efficiency(self) -> float:
        return sum(self.efficiencies) / len(self.efficiencies)

    @property
    def within_five_percent(self) -> int:
        return sum(1 for e in self.efficiencies if e >= 0.95)

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


def _fault_seed(seed: int, *, params: TreeGeneratorParams, tasks: int
                ) -> Tuple[Optional[float], Tuple[int, ...], int, int, bool]:
    """Per-tree crash/outage measurements for :func:`fault_recovery`."""
    from ..metrics.faults import recovery_report
    from ..platform import (CrashEvent, FaultSchedule, LinkFailureEvent,
                            LinkRepairEvent)

    config = ProtocolConfig.interruptible(3)
    tree = generate_tree(params, seed=seed)
    root_children = tree.children[tree.root]
    events: list = [CrashEvent(at_time=200, node=root_children[0])]
    if len(root_children) > 1:
        events.append(LinkFailureEvent(at_time=150, node=root_children[1]))
        events.append(LinkRepairEvent(at_time=450, node=root_children[1]))
    result = simulate(tree, tasks, config, faults=FaultSchedule(events))
    completed = sum(result.per_node_computed) == tasks
    report = recovery_report(result)
    return (report.post_recovery_efficiency,
            tuple(report.recovery_latencies),
            report.tasks_reexecuted, report.transfers_wasted, completed)


def fault_recovery(scale: ExperimentScale = ExperimentScale(),
                   params: TreeGeneratorParams = PAPER_DEFAULTS,
                   *, progress=None, workers: int = 1,
                   harness: Optional[HarnessConfig] = None
                   ) -> FaultRecoveryResult:
    """Crash one root subtree mid-run (plus a transient link outage on a
    second, when the tree has one) and measure the recovery protocol."""
    worker = partial(_fault_seed, params=params, tasks=scale.tasks)
    seeds = [scale.base_seed + i for i in range(scale.trees)]
    efficiencies: List[float] = []
    latencies: List[int] = []
    reexecuted = 0
    wasted = 0
    completed = True
    per_seed, coverage = _map_seeds(worker, seeds, progress, workers,
                                    harness=harness, experiment="faults",
                                    config_parts=(params, scale.tasks))
    for (efficiency, seed_latencies, seed_reexecuted, seed_wasted,
         seed_completed) in per_seed:
        if efficiency is not None:
            efficiencies.append(efficiency)
        latencies.extend(seed_latencies)
        reexecuted += seed_reexecuted
        wasted += seed_wasted
        completed &= seed_completed
    return FaultRecoveryResult(
        scale=scale,
        efficiencies=tuple(efficiencies),
        latencies=tuple(latencies),
        total_reexecuted=reexecuted,
        total_wasted=wasted,
        all_completed=completed,
        coverage=coverage,
    )


def format_fault_result(result: FaultRecoveryResult) -> str:
    return (
        f"Ablation — fault recovery (IC/FB=3, {result.scale.trees} trees, "
        f"{result.scale.tasks} tasks; mid-run subtree crash + link outage)\n"
        f"{'=' * 60}\n"
        f"all tasks completed despite failures      : "
        f"{result.all_completed}\n"
        f"task instances re-executed (total)        : "
        f"{result.total_reexecuted}\n"
        f"transfers wasted (total)                  : {result.total_wasted}\n"
        f"mean crash-to-reclaim latency             : "
        f"{result.mean_latency:.0f} steps\n"
        f"post-recovery rate / surviving optimal    : mean "
        f"{result.mean_efficiency:.3f}, >=95% on "
        f"{result.within_five_percent}/{len(result.efficiencies)} trees")


MULTI_APP_CONFIG = ProtocolConfig.interruptible(3)


@dataclass(frozen=True)
class MultiAppAblationResult:
    """Per-allocator fairness/efficiency of N concurrent applications."""

    scale: ExperimentScale
    apps: int
    allocators: Tuple[str, ...]
    #: allocator → mean steady-state rate of each app (application order).
    mean_app_rates: Dict[str, Tuple[float, ...]]
    #: allocator → mean Jain fairness index across the ensemble.
    mean_jain: Dict[str, float]
    #: allocator → mean price of anarchy (``None`` if never defined).
    mean_poa: Dict[str, Optional[float]]
    #: Crash-safety coverage report (``None`` when run without a harness).
    coverage: Optional[RunCoverage] = None


def _multi_app_seed(seed: int, *, params: TreeGeneratorParams, tasks: int,
                    apps: int, allocators: Tuple[str, ...]
                    ) -> Dict[str, Tuple[Tuple[float, ...], float,
                                         Optional[float]]]:
    """Per-tree multi-app measurements (picklable).

    Apps get ascending priorities (app0 most urgent) so ``selfish`` and
    the cooperative allocators genuinely disagree.
    """
    from ..apps import Application, Workload

    tree = generate_tree(params, seed=seed)
    per_app = max(2, tasks // apps)
    workload = Workload.of([
        Application(per_app, name=f"app{i}", priority=i)
        for i in range(apps)])
    out: Dict[str, Tuple[Tuple[float, ...], float, Optional[float]]] = {}
    for allocator in allocators:
        result = simulate(tree, workload, MULTI_APP_CONFIG,
                          allocator=allocator)
        rates = tuple(float(a.steady_rate) for a in result.apps)
        out[allocator] = (rates, result.jain_index, result.price_of_anarchy)
    return out


def multi_app(scale: ExperimentScale = ExperimentScale(),
              params: TreeGeneratorParams = PAPER_DEFAULTS,
              *, apps: int = 2,
              allocators: Sequence[str] = ("selfish", "maxmin"),
              progress=None, workers: int = 1,
              harness: Optional[HarnessConfig] = None
              ) -> MultiAppAblationResult:
    """Compare per-app bandwidth allocators over a random ensemble.

    ``scale.tasks`` is split evenly across ``apps`` concurrent
    applications with ascending priorities; every allocator runs on the
    same trees, and the result aggregates per-app steady rates, the Jain
    fairness index, and the price of anarchy vs the cooperative optimum.
    """
    if apps < 2:
        raise ExperimentError(f"multi_app needs >= 2 apps, got {apps}")
    allocators = tuple(allocators)
    worker = partial(_multi_app_seed, params=params, tasks=scale.tasks,
                     apps=apps, allocators=allocators)
    seeds = [scale.base_seed + i for i in range(scale.trees)]
    per_seed, coverage = _map_seeds(
        worker, seeds, progress, workers, harness=harness,
        experiment="multi_app",
        config_parts=(params, scale.tasks, apps, allocators))
    mean_app_rates: Dict[str, Tuple[float, ...]] = {}
    mean_jain: Dict[str, float] = {}
    mean_poa: Dict[str, Optional[float]] = {}
    for allocator in allocators:
        rate_rows = [row[allocator][0] for row in per_seed]
        jains = [row[allocator][1] for row in per_seed]
        poas = [row[allocator][2] for row in per_seed
                if row[allocator][2] is not None]
        mean_app_rates[allocator] = tuple(
            sum(col) / len(col) for col in zip(*rate_rows))
        mean_jain[allocator] = sum(jains) / len(jains)
        mean_poa[allocator] = sum(poas) / len(poas) if poas else None
    return MultiAppAblationResult(
        scale=scale, apps=apps, allocators=allocators,
        mean_app_rates=mean_app_rates, mean_jain=mean_jain,
        mean_poa=mean_poa, coverage=coverage)


def format_multi_app_result(result: MultiAppAblationResult) -> str:
    headers = (["allocator"]
               + [f"app{i} rate" for i in range(result.apps)]
               + ["Jain index", "price of anarchy"])
    rows = []
    for allocator in result.allocators:
        rates = result.mean_app_rates[allocator]
        poa = result.mean_poa[allocator]
        rows.append([allocator]
                    + [f"{r:.5f}" for r in rates]
                    + [fmt_num(result.mean_jain[allocator]),
                       fmt_num(poa) if poa is not None else "-"])
    return format_table(
        headers, rows,
        title=(f"Ablation — multi-application allocators "
               f"({result.apps} apps, {result.scale.trees} trees, "
               f"{result.scale.tasks} tasks split evenly, IC/FB=3)"))
