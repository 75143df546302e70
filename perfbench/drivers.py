"""The benchmark's three workloads: inputs from a seed, runs, output checks.

Each workload builds its platforms from the workload seed (the program
under test only ever sees the generated platforms and schedules), turns
them into a list of :class:`Case` runs, and runs each case to completion
before the next one starts (a closed loop on the host).

* ``fig4_trees`` -- the paper's Figure 4 ensemble: random trees from the
  paper's generator, each run under the four Figure 4 protocols with a
  closed bag of 2,000 tasks, onset scored against ``solve_tree``.  Deep
  trees with moderate fan-out: the agents and the calendar do the work.
* ``fabric_faults`` -- 64-host leaf-spine fabrics through the graph
  engine under a seeded chaos fault schedule.  The only workload that
  runs the contention solver, the routed fault driver and the liveness
  sweep.  The host count is fixed so that run cost varies with the
  drawn weights and faults, not with a fabric size spanning 50x.
* ``service_star`` -- open-loop service mode on a 1,024-worker star:
  diurnal arrivals whose peak is 1.5x the star's optimal rate, through a
  token bucket at that rate.  One level with huge fan-out, plus the
  arrival, admission and latency-sketch work.  Each "day" is sized to
  offer about 4,000 tasks whatever rate the drawn star has.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.fig4 import FIG4_CONFIGS
from repro.metrics import default_threshold, detect_onset
from repro.platform.faults import (FaultSchedule, SwitchCrashEvent,
                                   chaos_schedule)
from repro.platform.generator import PAPER_DEFAULTS, generate_tree
from repro.platform.graph import Overlay, PlatformGraph, generate_platform
from repro.platform.tree import PlatformTree
from repro.protocols import GraphProtocolEngine, ProtocolConfig, ProtocolEngine
from repro.protocols.result import SimulationResult
from repro.protocols.topologies import topology_overlay
from repro.service import DiurnalArrivals, TokenBucket
from repro.steady_state import solve_tree
from repro.steady_state.allocation import allocate

from ledger import Ledger, TimedContention

IC3 = ProtocolConfig.interruptible(3)

#: Figure 4 ensemble: trees per seed and closed-bag size (the CLI's
#: ``--scale smoke`` task count, the smallest at which onset is meaningful).
FIG4_TREES = 48
FIG4_TASKS = 2000

#: Fabric workload: fabrics per seed, hosts per fabric, bag size, faults.
FABRIC_COUNT = 80
FABRIC_HOSTS = 64
FABRIC_TASKS = 350
FABRIC_FAULTS = 6

#: Service workload: stars per seed, workers per star, days per star,
#: the diurnal profile as multiples of the star's optimal rate, and the
#: number of tasks a day offers on average.
STAR_COUNT = 16
STAR_WORKERS = 1024
STAR_DAYS = 6
DIURNAL_PROFILE = (0.4, 1.5, 0.7)
DAY_OFFERED = 4000


@dataclass(frozen=True)
class Case:
    """One simulation run: a platform, a protocol and a workload."""

    label: str
    platform: object  # PlatformTree or PlatformGraph
    #: ``solve_tree`` rate of the platform (of the overlay tree on graphs);
    #: no run's mean rate may exceed it.
    reference: Fraction
    config: ProtocolConfig = IC3
    #: Closed-bag size; 0 for open-loop runs.
    tasks: int = 0
    overlay: Optional[Overlay] = None
    faults: Optional[FaultSchedule] = None
    arrivals: Optional[DiurnalArrivals] = None
    admission: Optional[TokenBucket] = None
    #: Score the onset of optimal steady state (Figure 4 runs only).
    onset_threshold: Optional[int] = None


@dataclass(frozen=True)
class Outcome:
    """What one run produced, as the benchmark reads it."""

    result: SimulationResult
    onset: Optional[int]
    #: Host seconds spent in ``detect_onset``.
    onset_s: float
    #: ``LinkContention.stats()`` after the run (graph runs only).
    contention: Optional[Dict[str, int]]

    @property
    def tasks(self) -> int:
        """Simulated tasks completed."""
        return len(self.result.completion_times)


@dataclass
class Setup:
    """A workload's cases plus the host time each set-up layer took."""

    cases: List[Case]
    build_s: float = 0.0
    overlay_s: float = 0.0
    solve_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.build_s + self.overlay_s + self.solve_s


def _platform_seeds(seed: int, count: int) -> List[int]:
    """Distinct platform seeds for workload seed ``seed``."""
    return [seed * 1000 + i for i in range(count)]


def _stratified(seed: int, count: int,
                key: Callable[[int], float]) -> List[int]:
    """``count`` platform seeds: one at random from each consecutive
    triple of a pool of ``3 * count`` seeds ranked by ``key``.

    The platforms still follow the generator's distribution, but the
    ensembles of two workload seeds differ far less in ``key``.
    """
    pool = _platform_seeds(seed, 3 * count)
    ranks = {s: key(s) for s in pool}
    ranked = sorted(pool, key=lambda s: (ranks[s], s))
    rng = random.Random(seed)
    return [ranked[3 * i + rng.randrange(3)] for i in range(count)]


def fig4_tree_seeds(seed: int, trees: int = FIG4_TREES) -> List[int]:
    """Seeds of ``trees`` paper-generator trees, stratified by how deep
    the optimal schedule sends its work.

    A run's cost follows the mean tree depth at which the optimal steady
    state computes its tasks (about 0.9 correlation with host time), and
    trees vary widely in it, so the trees are stratified by that depth.
    """
    def work_depth(s: int) -> float:
        tree = generate_tree(PAPER_DEFAULTS, seed=s)
        rates = [float(r) for r in allocate(tree).compute_rates]
        return (sum(r * tree.depth(i) for i, r in enumerate(rates))
                / sum(rates))

    return _stratified(seed, trees, work_depth)


def fig4_setup(tree_seeds: List[int]) -> Setup:
    """The given paper-generator trees, each under the four Figure 4
    protocols (tree-major order)."""
    setup = Setup([])
    start = perf_counter()
    platforms = [generate_tree(PAPER_DEFAULTS, seed=s) for s in tree_seeds]
    setup.build_s = perf_counter() - start
    start = perf_counter()
    references = [solve_tree(tree).rate for tree in platforms]
    setup.solve_s = perf_counter() - start
    threshold = default_threshold(FIG4_TASKS)
    for s, tree, reference in zip(tree_seeds, platforms, references):
        for config in FIG4_CONFIGS:
            setup.cases.append(Case(
                f"tree {s} {config.label}", tree, reference, config,
                FIG4_TASKS, onset_threshold=threshold))
    return setup


def _fabric(seed: int) -> PlatformGraph:
    """A generated leaf-spine fabric of ``FABRIC_HOSTS`` hosts."""
    params = replace(PAPER_DEFAULTS, min_nodes=FABRIC_HOSTS,
                     max_nodes=FABRIC_HOSTS)
    return generate_platform("leafspine", params, seed=seed)


def fabric_seeds(seed: int, fabrics: int = FABRIC_COUNT) -> List[int]:
    """Seeds of ``fabrics`` leaf-spine fabrics, stratified by their
    optimal makespan.

    Nearly all of a fabric run's events are liveness-sweep ticks, whose
    number follows the run's makespan, and the optimal rate of 64 hosts
    with heavy-tailed speeds varies severalfold between fabrics.
    """
    return _stratified(seed, fabrics, lambda s: 1 / solve_tree(
        topology_overlay(_fabric(s)).tree).rate)


def fabric_setup(seeds: List[int]) -> Setup:
    """The given fabrics, each with its own chaos schedule."""
    setup = Setup([])
    start = perf_counter()
    graphs = [_fabric(s) for s in seeds]
    schedules = [_chaos(g, s) for s, g in zip(seeds, graphs)]
    setup.build_s = perf_counter() - start
    start = perf_counter()
    overlays = [topology_overlay(g) for g in graphs]
    setup.overlay_s = perf_counter() - start
    start = perf_counter()
    references = [solve_tree(overlay.tree).rate for overlay in overlays]
    setup.solve_s = perf_counter() - start
    for s, graph, overlay, schedule, reference in zip(
            seeds, graphs, overlays, schedules, references):
        setup.cases.append(Case(
            f"fabric {s}", graph, reference, IC3, FABRIC_TASKS,
            overlay=overlay, faults=schedule))
    return setup


def _chaos(graph: PlatformGraph, seed: int) -> FaultSchedule:
    """The first chaos schedule, from ``seed`` on, that leaves the
    repository its leaf switch.

    ``chaos_schedule`` never targets the repository itself, but about one
    schedule in nine crashes the repository's only switch.  The repository
    then computes the whole bag alone while every liveness sweep keeps
    ticking, and that one run costs about 40 typical runs, which would
    make the per-seed figures swing by multiples.  Every run kept still
    spends about 97% of its events on sweeps.
    """
    access = set(graph.adj[graph.root])
    while True:
        schedule = chaos_schedule(graph, seed=seed, events=FABRIC_FAULTS)
        if not any(isinstance(event, SwitchCrashEvent)
                   and event.node in access for event in schedule):
            return schedule
        seed += 1_000_003


def _star(rng: random.Random) -> PlatformTree:
    """A fork of ``STAR_WORKERS`` workers with the paper's weight ranges."""
    params = PAPER_DEFAULTS
    lo_w = max(1, params.max_comp // params.comp_divisor)
    return PlatformTree.fork(
        rng.randint(lo_w, params.max_comp),
        [(rng.randint(params.min_comm, params.max_comm),
          rng.randint(lo_w, params.max_comp))
         for _ in range(STAR_WORKERS)])


def service_setup(seed: int, stars: int = STAR_COUNT,
                  days: int = STAR_DAYS) -> Setup:
    """``stars`` wide stars, each serving ``days`` independent diurnal
    days (star-major order)."""
    setup = Setup([])
    seeds = _platform_seeds(seed, stars)
    start = perf_counter()
    platforms = [_star(random.Random(s)) for s in seeds]
    setup.build_s = perf_counter() - start
    start = perf_counter()
    references = [solve_tree(star).rate for star in platforms]
    setup.solve_s = perf_counter() - start
    start = perf_counter()
    for s, star, reference in zip(seeds, platforms, references):
        rate = float(reference)
        rates = tuple(m * rate for m in DIURNAL_PROFILE)
        phase_len = max(1, round(DAY_OFFERED / sum(rates)))
        # The bucket refills at the optimal rate (to three digits), so
        # the peak phase is where tasks get dropped.
        admission = TokenBucket(rate=reference.limit_denominator(1000),
                                burst=64)
        for day in range(days):
            arrivals = DiurnalArrivals(rates=rates, phase_len=phase_len,
                                       horizon=len(rates) * phase_len,
                                       seed=s * 100 + day)
            setup.cases.append(Case(
                f"star {s} day {day}", star, reference, IC3,
                arrivals=arrivals, admission=admission))
    setup.build_s += perf_counter() - start
    return setup


#: Workload name -> function of the workload seed returning the set-up
#: to time.  Choosing the platforms is input selection: it runs once, in
#: the outer call; the returned set-up builds platforms and references.
WORKLOADS: Dict[str, Callable[[int], Callable[[], Setup]]] = {
    "fig4_trees": lambda seed: partial(fig4_setup, fig4_tree_seeds(seed)),
    "fabric_faults": lambda seed: partial(fabric_setup, fabric_seeds(seed)),
    "service_star": lambda seed: partial(service_setup, seed),
}


def run_case(case: Case, ledger: Optional[Ledger] = None) -> Outcome:
    """Run one case to completion; with a ``ledger``, trace it."""
    contention = None
    if isinstance(case.platform, PlatformGraph):
        if ledger is not None:
            contention = TimedContention(case.platform.link_capacities(),
                                         case.platform.contention, ledger)
        engine = GraphProtocolEngine(
            case.platform, case.config, case.tasks, overlay=case.overlay,
            faults=case.faults, contention=contention)
    else:
        engine = ProtocolEngine(
            case.platform, case.config, case.tasks,
            arrivals=case.arrivals, admission=case.admission)
    if ledger is not None:
        ledger.attach(engine)
    try:
        result = engine.run()
    finally:
        if ledger is not None:
            ledger.close()
    onset, onset_s = None, 0.0
    if case.onset_threshold is not None:
        start = perf_counter()
        onset = detect_onset(result.completion_times, case.reference,
                             case.onset_threshold)
        onset_s = perf_counter() - start
    stats = (engine.contention.stats()
             if isinstance(engine, GraphProtocolEngine) else None)
    return Outcome(result, onset, onset_s, stats)


def check(case: Case, outcome: Outcome) -> List[str]:
    """Output checks of one run; an empty list means it passed."""
    result = outcome.result
    problems = []
    completed = outcome.tasks
    if case.arrivals is None:
        if not (result.num_tasks == completed == case.tasks
                == sum(result.per_node_computed)):
            problems.append(
                f"closed bag of {case.tasks} finished with "
                f"num_tasks={result.num_tasks}, {completed} completions, "
                f"{sum(result.per_node_computed)} computed")
    else:
        stats = result.service
        if stats.offered != stats.admitted + stats.dropped:
            problems.append(
                f"offered {stats.offered} != admitted {stats.admitted} "
                f"+ dropped {stats.dropped}")
        if not stats.completed == stats.admitted == completed:
            problems.append(
                f"completed {stats.completed} != admitted {stats.admitted} "
                f"({completed} completion times)")
    makespan = Fraction(result.makespan)
    if makespan > 0 and Fraction(completed) / makespan > case.reference:
        problems.append(
            f"mean rate {float(completed / makespan):.6g} exceeds the "
            f"solve_tree reference {float(case.reference):.6g}")
    return problems


def fold_digest(digest, outcome: Outcome) -> None:
    """Fold one run's fingerprint (and onset) into a running sha256."""
    digest.update(outcome.result.fingerprint().encode())
    digest.update(repr(outcome.onset).encode())


def reached_by_protocol(cases: List[Case],
                        outcomes: List[Outcome]) -> Dict[str, Tuple[int, int]]:
    """Protocol label -> (runs that reached onset, runs scored)."""
    out: Dict[str, Tuple[int, int]] = {}
    for case, outcome in zip(cases, outcomes):
        if case.onset_threshold is None:
            continue
        hit, total = out.get(case.config.label, (0, 0))
        out[case.config.label] = (hit + (outcome.onset is not None),
                                  total + 1)
    return out
