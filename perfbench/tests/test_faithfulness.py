"""The benchmark drives the program the way its users do, and its checks bite.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

import drivers
import run
from ledger import Ledger
from repro import simulate
from repro.apps import Workload
from repro.experiments import fig4
from repro.experiments.common import ExperimentScale

ROOT = Path(__file__).resolve().parents[2]


def test_fig4_driver_matches_the_fig4_experiment():
    trees = 3
    setup = drivers.fig4_setup(list(range(3000, 3000 + trees)))
    expected = fig4.run(ExperimentScale(trees=trees, tasks=drivers.FIG4_TASKS,
                                        base_seed=3000))
    assert len(setup.cases) == trees * len(fig4.FIG4_CONFIGS)
    for case in setup.cases:
        tree_case = expected.cases[int(case.label.split()[1]) - 3000]
        assert case.reference == tree_case.optimal_rate
        outcome = drivers.run_case(case)
        want = tree_case.outcomes[case.config.label]
        result = outcome.result
        assert (outcome.onset, result.makespan, result.max_buffers,
                result.max_held, result.num_used_nodes, result.used_depth) == (
            want.onset, want.makespan, want.max_buffers, want.max_held,
            want.used_nodes, want.used_depth)


def test_fabric_driver_matches_simulate():
    for case in drivers.fabric_setup([3000, 3001]).cases:
        want = simulate(case.platform, case.tasks, case.config,
                        faults=case.faults, overlay=case.overlay)
        got = drivers.run_case(case).result
        assert got.fingerprint() == want.fingerprint()


def test_service_driver_matches_simulate():
    for case in drivers.service_setup(3, stars=1, days=2).cases:
        workload = Workload(arrivals=case.arrivals, admission=case.admission)
        want = simulate(case.platform, workload, case.config)
        got = drivers.run_case(case).result
        assert got.fingerprint() == want.fingerprint()


@pytest.mark.parametrize("choose", [drivers.fig4_tree_seeds,
                                    drivers.fabric_seeds])
def test_platforms_are_one_per_stratum_of_a_seeded_pool(choose):
    seeds = choose(5, 4)
    assert seeds == choose(5, 4)
    assert len(set(seeds)) == 4
    assert all(5000 <= s < 5012 for s in seeds)
    assert seeds != choose(6, 4)


SMALL = {
    "fig4_trees": lambda seed: drivers.fig4_setup(
        drivers.fig4_tree_seeds(seed, trees=2)),
    "fabric_faults": lambda seed: drivers.fabric_setup(
        drivers.fabric_seeds(seed, fabrics=2)),
    "service_star": lambda seed: drivers.service_setup(seed, stars=1, days=2),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_a_second_seed_passes_every_check(workload):
    ledger = Ledger()
    digests = []
    for _ in range(2):
        digest = hashlib.sha256()
        for case in SMALL[workload](2).cases:
            outcome = drivers.run_case(case)
            assert drivers.check(case, outcome) == []
            traced = drivers.run_case(case, ledger)
            assert (traced.result.fingerprint()
                    == outcome.result.fingerprint())
            drivers.fold_digest(digest, outcome)
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]
    counts = ledger.counts()
    assert sum(counts.values()) > 0
    if workload == "fabric_faults":
        assert ledger.contention_calls > 0
        share = counts["NodeAgent._liveness_sweep"] / sum(counts.values())
        assert share >= 0.9
    else:
        assert ledger.contention_calls == 0


def _first(setup_fn):
    case = setup_fn(4).cases[0]
    return case, drivers.run_case(case)


def test_checks_catch_a_short_bag():
    case, outcome = _first(SMALL["fig4_trees"])
    result = outcome.result
    short = replace(result, completion_times=result.completion_times[:-1])
    assert drivers.check(case, replace(outcome, result=short))


def test_checks_catch_a_rate_above_the_reference():
    case, outcome = _first(SMALL["fabric_faults"])
    too_low = replace(case, reference=case.reference / 1000)
    assert drivers.check(too_low, outcome)


def test_checks_catch_service_leaks():
    case, outcome = _first(SMALL["service_star"])
    stats = outcome.result.service
    for broken in (replace(stats, dropped=stats.dropped + 1),
                   replace(stats, completed=stats.completed - 1)):
        result = replace(outcome.result, service=broken)
        assert drivers.check(case, replace(outcome, result=result))


def test_tail_leaves_ten_runs_beyond_it():
    value, pct, runs = run.tail(list(range(100)))
    assert (value, pct, runs) == (89, 90.0, 100)
    assert sum(1 for t in range(100) if t > value) == 10


def test_benchmark_json_declares_the_manifest_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = run.MANIFEST
    assert [w["name"] for w in bench["workloads"]] == list(
        manifest["workloads"])
    assert sorted(manifest["workloads"]) == sorted(drivers.WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in bench[section]}
        assert declared == {name: (spec["unit"], spec["better"])
                            for name, spec in manifest[section].items()}
    for metric in bench["end_to_end"]:
        spec = manifest["end_to_end"][metric["name"]]
        assert metric["bound"] == spec["bound"]
