"""Figure 7 — Adaptability to communication and processor contention.

On the Figure 1 platform, a 1000-task application runs under the
non-interruptible protocol with two fixed buffers (as stated in §4.2.3).
Three scenarios:

* baseline: ``c1 = 1, w1 = 3`` throughout;
* communication contention: after 200 completed tasks, ``c1`` rises to 3;
* processor relief: after 200 completed tasks, ``w1`` drops to 1.

The figure plots cumulative tasks completed against time, with the optimal
steady-state slope of each platform phase as a reference; the protocol's
post-change slope should track the new optimum closely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..harness import HarnessConfig, RunCoverage, run_seeds
from ..metrics import window_rate
from ..platform import Mutation, MutationSchedule, figure1_tree
from ..api import simulate
from ..protocols import ProtocolConfig
from ..steady_state import solve_tree
from .common import ExperimentScale
from .reporting import fmt_num, format_table

__all__ = ["Fig7Result", "ScenarioResult", "run", "format_result"]

CONFIG = ProtocolConfig.non_interruptible(2, buffer_growth=False)
CHANGE_AT = 200
NUM_TASKS = 1000


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    #: (time, cumulative tasks) samples of the run.
    curve: Tuple[Tuple[int, int], ...]
    #: Optimal steady-state rate before the change.
    optimal_before: Fraction
    #: Optimal rate after the change (equals before for the baseline).
    optimal_after: Fraction
    #: Measured rate over the tail (well after the change).
    measured_after: Fraction

    @property
    def tracking_error(self) -> float:
        """Relative gap between the post-change rate and the new optimum."""
        return abs(float(self.measured_after / self.optimal_after) - 1.0)


@dataclass(frozen=True)
class Fig7Result:
    scenarios: Tuple[ScenarioResult, ...]
    #: Crash-safety coverage report (``None`` when run without a harness).
    coverage: Optional[RunCoverage] = None


def _run_scenario(name: str, mutation: Optional[Mutation],
                  num_tasks: int, sample_points: int) -> ScenarioResult:
    tree = figure1_tree()
    schedule = MutationSchedule([mutation] if mutation else [])
    optimal_before = solve_tree(tree).rate
    phases = schedule.phases(tree)
    optimal_after = solve_tree(phases[-1][1]).rate

    result = simulate(tree, num_tasks, CONFIG, mutations=schedule)
    times = result.completion_times
    step = max(1, len(times) // sample_points)
    curve = tuple((times[i], i + 1) for i in range(step - 1, len(times), step))

    # Tail rate: completions from 2×change-point to the end.
    skip = min(2 * CHANGE_AT, len(times) - 2)
    count = len(times) - skip
    measured = Fraction(count, times[-1] - times[skip - 1])
    return ScenarioResult(name=name, curve=curve,
                          optimal_before=optimal_before,
                          optimal_after=optimal_after,
                          measured_after=measured)


def _scenario_specs() -> Tuple[Tuple[str, Optional[Mutation]], ...]:
    return (
        ("baseline (c1=1, w1=3)", None),
        (f"c1: 1 → 3 after {CHANGE_AT} tasks",
         Mutation(node=1, attribute="c", value=3, after_tasks=CHANGE_AT)),
        (f"w1: 3 → 1 after {CHANGE_AT} tasks",
         Mutation(node=1, attribute="w", value=1, after_tasks=CHANGE_AT)),
    )


def _run_scenario_for_pool(index: int, *, num_tasks: int,
                           sample_points: int) -> ScenarioResult:
    """Module-level wrapper so :func:`run` pool workers can be pickled.

    Keyed by scenario *index* so the crash-safe harness can journal each
    scenario like an ensemble seed.
    """
    name, mutation = _scenario_specs()[index]
    return _run_scenario(name, mutation, num_tasks, sample_points)


def run(scale: Optional[ExperimentScale] = None, *,
        progress=None, workers: int = 1,
        harness: Optional[HarnessConfig] = None,
        sample_points: int = 20) -> Fig7Result:
    """Run the three Figure 7 scenarios.

    Takes the unified experiment signature ``run(scale, *, progress=None,
    workers=1)``.  With no ``scale`` the paper's §4.2.3 setting is used
    (``NUM_TASKS`` tasks on the fixed Figure 1 platform — the ensemble
    fields of a scale do not apply here, only ``scale.tasks``).
    ``workers > 1`` fans the three independent scenarios out over a
    process pool; results come back in scenario order either way.
    """
    if scale is None:
        scale = ExperimentScale(trees=1, tasks=NUM_TASKS)
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")

    specs = _scenario_specs()
    worker_fn = partial(_run_scenario_for_pool, num_tasks=scale.tasks,
                        sample_points=sample_points)
    outcome = run_seeds(
        worker_fn, range(len(specs)),
        experiment="fig7",
        config_parts=(scale.tasks, sample_points),
        harness=harness, workers=workers, progress=progress)
    return Fig7Result(scenarios=tuple(outcome.values),
                      coverage=(outcome.coverage if harness is not None
                                else None))


def format_result(result: Fig7Result) -> str:
    rows = []
    for s in result.scenarios:
        rows.append([
            s.name,
            fmt_num(float(s.optimal_before), 4),
            fmt_num(float(s.optimal_after), 4),
            fmt_num(float(s.measured_after), 4),
            fmt_num(100 * s.tracking_error, 2) + "%",
        ])
    table = format_table(
        ["scenario", "optimal before", "optimal after",
         "measured after change", "tracking error"],
        rows,
        title=("Figure 7 — adaptability on the Figure 1 platform "
               f"(non-IC/FB=2, {NUM_TASKS} tasks, change at {CHANGE_AT})"))
    curves = []
    for s in result.scenarios:
        points = "  ".join(f"({t},{n})" for t, n in s.curve)
        curves.append(f"{s.name}: {points}")
    return table + "\n\ncumulative completions (time, tasks):\n" + "\n".join(curves)
