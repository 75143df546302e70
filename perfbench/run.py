"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fig4_trees --seed 1 --trace 0
    python3 perfbench/run.py --report [--seed 1] [--seconds 20]

With ``--trace 0`` the workload runs untraced for ``--seconds`` host
seconds (at least one full pass over its cases) and the last line of
standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` it runs the first half of its cases twice, untraced and
then traced through :mod:`ledger`, and reports the per-layer metrics.
``--report`` runs every workload both ways in child processes and prints
one table of every metric with its unit.  Metric names, units and
directions are declared in ``metrics.json`` beside this file; README.md
explains how to read them.

Every run is checked (see :func:`drivers.check`); a run that raises or
fails a check counts as failed, and the result's ``correct`` is false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((HERE / "metrics.json").read_text())

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Heap operations in one host-speed probe, and the probe's duration on
#: the reference host.  Every host time the benchmark reports is scaled
#: by reference / measured probe time.
PROBE_OPS = 8000
REFERENCE_PROBE_S = MANIFEST["environment"]["reference_probe_s"]

#: Protocol label -> metric-name suffix for ``metrics.reached_pct.*``.
PROTOCOL_KEYS = {
    "non-IC, IB=1": "nonIC-IB1",
    "IC, FB=1": "IC-FB1",
    "IC, FB=2": "IC-FB2",
    "IC, FB=3": "IC-FB3",
}


def _import_program():
    """Import the program from ``src/`` and the benchmark modules that
    use it; returns the drivers module and the host seconds it took."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import drivers  # noqa: E402 -- imports repro
    return drivers, perf_counter() - start


def probe() -> float:
    """Host seconds for a fixed heap push/pop loop (the calendar's
    tuple shape), independent of the program under test."""
    heap = []
    push, pop = heappush, heappop
    start = perf_counter()
    for seq in range(PROBE_OPS):
        push(heap, (seq % 97, 1, seq, None))
        if seq & 1:
            pop(heap)
    while heap:
        pop(heap)
    return perf_counter() - start


class Yardstick:
    """Host-speed probes interleaved with measured intervals.

    The host this runs on is shared, and its speed drifts by a quarter
    over tens of seconds.  A probe before the first interval and after
    each one tracks that drift; :meth:`scale` rescales every interval by
    the median of the probes around it, so the reported times read as
    if measured at the reference host's speed.
    """

    def __init__(self):
        self.probes = [probe()]

    def mark(self) -> None:
        """Probe after a measured interval."""
        self.probes.append(probe())

    def scale(self, raw):
        """Rescale ``raw[i]``, measured between probes ``i`` and
        ``i + 1``, to reference-host seconds."""
        probes = self.probes
        return [t * REFERENCE_PROBE_S
                / statistics.median(probes[max(0, i - 2):i + 4])
                for i, t in enumerate(raw)]


class Tally:
    """Runs attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, drivers, case, ledger=None):
        """Run and check one case; returns (outcome or None, host s)."""
        self.attempted += 1
        start = perf_counter()
        try:
            outcome = drivers.run_case(case, ledger)
        except Exception:  # a crashing run is a failed run, not a crash
            elapsed = perf_counter() - start
            self.failed += 1
            print(f"FAILED {case.label}:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None, elapsed
        elapsed = perf_counter() - start
        problems = drivers.check(case, outcome)
        if problems:
            self.fail(case, "; ".join(problems))
        return outcome, elapsed

    def fail(self, case, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {case.label}: {reason}", file=sys.stderr)


def _setup(drivers, workload: str, seed: int):
    """Set the workload up ``SETUP_REPEATS`` times; returns the last
    set-up and the median of each layer's host time."""
    build = drivers.WORKLOADS[workload](seed)
    stick = Yardstick()
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(build())
        stick.mark()
    times = {}
    for name, attr in (("setup_s", "total_s"),
                       ("platform.build_s", "build_s"),
                       ("platform.overlay_s", "overlay_s"),
                       ("steady_state.solve_s", "solve_s")):
        times[name] = statistics.median(
            stick.scale([getattr(s, attr) for s in setups]))
    return setups[-1], times


def tail(times_ms):
    """(value, percentile, runs): the highest percentile of ``times_ms``
    with at least ten runs beyond it (the maximum below eleven runs)."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def measure(drivers, setup, seconds: float, tally: Tally):
    """The untraced run phase: as many whole passes over the cases as
    fit in ``seconds`` at the pace of the passes so far (at least one).

    Whole passes keep every case's share of the runs fixed, so the
    percentiles do not depend on where a deadline cut the last pass.
    """
    cases = setup.cases
    digest = hashlib.sha256()
    first = []
    raw = []
    tasks = 0
    stick = Yardstick()
    start = perf_counter()
    i = 0
    while i % len(cases) or not i or (
            (perf_counter() - start) * (1 + len(cases) / i) <= seconds):
        case = cases[i % len(cases)]
        outcome, elapsed = tally.run(drivers, case)
        stick.mark()
        raw.append(elapsed)
        if outcome is not None:
            tasks += outcome.tasks
            fingerprint = outcome.result.fingerprint()
            if i < len(cases):
                first.append(fingerprint)
                drivers.fold_digest(digest, outcome)
            elif first[i % len(cases)] not in (None, fingerprint):
                tally.fail(case, "fingerprint differs from its first run")
        elif i < len(cases):
            first.append(None)
        i += 1
    times = stick.scale(raw)
    print(f"raw host time {sum(raw):.3f} s, scaled {sum(times):.3f} s")
    return [t * 1e3 for t in times], tasks, sum(times), digest.hexdigest()


def end_to_end(drivers, setup, setup_times, seconds, tally):
    times_ms, tasks, busy, digest = measure(drivers, setup, seconds, tally)
    value, pct, runs = tail(times_ms)
    print(f"run_ms_tail is p{pct:.1f} of {runs} runs")
    print(f"digest {digest}")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "tasks_per_s": tasks / busy,
        "run_ms_p50": statistics.median(times_ms),
        "run_ms_tail": value,
        "setup_s": setup_times["setup_s"],
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_run_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def per_layer(drivers, setup, setup_times, import_s, tally):
    from ledger import Ledger

    cases = setup.cases[:max(1, len(setup.cases) // 2)]
    plain, plain_raw = [], []
    stick = Yardstick()
    for case in cases:
        outcome, elapsed = tally.run(drivers, case)
        stick.mark()
        plain.append(outcome)
        plain_raw.append(elapsed)
    plain_s = sum(stick.scale(plain_raw))
    plain_speed = plain_s / sum(plain_raw)
    ledger = Ledger()
    traced_raw = []
    stick = Yardstick()
    for case, twin in zip(cases, plain):
        outcome, elapsed = tally.run(drivers, case, ledger)
        stick.mark()
        traced_raw.append(elapsed)
        if (outcome is not None and twin is not None
                and outcome.result.fingerprint() != twin.result.fingerprint()):
            tally.fail(case, "traced run differs from its untraced twin")
    traced_s = sum(stick.scale(traced_raw))
    # Self times are raw host time; one factor brings them to reference
    # seconds like every other time reported.
    speed = traced_s / sum(traced_raw)
    done = [o for o in plain if o is not None]
    results = [o.result for o in done]
    tasks = sum(o.tasks for o in done) or 1
    events = sum(r.events_processed for r in results)

    counts = ledger.counts()
    all_events = sum(counts.values()) or 1
    metrics = {
        "setup.import_s": import_s,
        "platform.build_s": setup_times["platform.build_s"],
        "platform.overlay_s": setup_times["platform.overlay_s"],
        "steady_state.solve_s": setup_times["steady_state.solve_s"],
        "sim.events": events,
        "sim.events_per_task": events / tasks,
        "sim.us_per_event": plain_s / max(events, 1) * 1e6,
    }
    ledger_names = [name for name in MANIFEST["per_layer"]
                    if name.startswith("sim.ledger.")]
    for name in ledger_names:
        metrics[name] = 0
    for kind, n in counts.items():
        name = f"sim.ledger.{kind}"
        if name not in metrics:
            name = "sim.ledger.other"
        metrics[name] += n

    layers = {layer: seconds * speed
              for layer, seconds in ledger.layer_self_s().items()}
    known = ("agents", "service", "contention")
    metrics["agents.self_s"] = layers.get("agents", 0.0)
    metrics["agents.transfers_per_task"] = (
        sum(r.transfers for r in results) / tasks)
    metrics["agents.preemptions_per_task"] = (
        sum(r.preemptions for r in results) / tasks)
    metrics["agents.sweep_share"] = (
        counts["NodeAgent._liveness_sweep"] / all_events)
    # Kernel-side and unattributed callbacks count as engine time.
    metrics["engine.self_s"] = sum(s for layer, s in layers.items()
                                   if layer not in known)

    from repro.metrics.faults import recovery_latencies
    latencies = [lat for r in results for lat in recovery_latencies(r)]
    metrics["faults.tasks_reexecuted"] = sum(r.tasks_reexecuted
                                             for r in results)
    metrics["faults.transfers_wasted"] = sum(r.transfers_wasted
                                             for r in results)
    metrics["faults.detect_latency"] = (
        statistics.fmean(latencies) if latencies else 0.0)

    stats = Counter()
    for o in done:
        stats.update(o.contention or {})
    calls = ledger.contention_calls
    lookups = (stats["memo_hits"] + stats["solves_int"]
               + stats["solves_fraction"])
    metrics["contention.calls"] = calls
    metrics["contention.self_s"] = layers["contention"]
    metrics["contention.us_per_call"] = (
        layers["contention"] / calls * 1e6 if calls else 0.0)
    metrics["contention.memo_hit_ratio"] = (
        stats["memo_hits"] / lookups if lookups else 0.0)
    metrics["contention.solves_fraction"] = stats["solves_fraction"]
    metrics["contention.dirty_flows_per_call"] = (
        stats["dirty_flows"] / calls if calls else 0.0)

    service = [r.service for r in results if r.service is not None]
    offered = sum(s.offered for s in service)
    metrics["service.self_s"] = layers.get("service", 0.0)
    metrics["service.offered"] = offered
    metrics["service.drop_ratio"] = (
        sum(s.dropped for s in service) / offered if offered else 0.0)
    metrics["service.p99_latency"] = (
        statistics.median(s.p99 for s in service) if service else 0.0)
    metrics["service.pending_high_water"] = max(
        (s.pending_high_water for s in service), default=0)

    metrics["metrics.onset_s"] = sum(o.onset_s for o in done) * plain_speed
    reached = drivers.reached_by_protocol(
        [c for c, o in zip(cases, plain) if o is not None], done)
    for label, key in PROTOCOL_KEYS.items():
        hit, total = reached.get(label, (0, 0))
        metrics[f"metrics.reached_pct.{key}"] = (
            100.0 * hit / total if total else 0.0)
    metrics["trace.overhead"] = traced_s / plain_s if plain_s else 0.0
    metrics["failed_run_ratio"] = tally.failed / max(tally.attempted, 1)
    return metrics


def run_workload(args) -> int:
    drivers, import_s = _import_program()
    import_s *= REFERENCE_PROBE_S / probe()
    if args.workload not in drivers.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(drivers.WORKLOADS)}")
    setup, setup_times = _setup(drivers, args.workload, args.seed)
    tally = Tally()
    if args.trace:
        values = per_layer(drivers, setup, setup_times, import_s, tally)
        declared = MANIFEST["per_layer"]
    else:
        values = end_to_end(drivers, setup, setup_times, args.seconds, tally)
        declared = MANIFEST["end_to_end"]
    metrics = {name: {"value": values[name], "unit": spec["unit"]}
               for name, spec in declared.items()}
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:45s} {metric['value']!r} "
              f"{metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def report(args) -> int:
    """Run every workload untraced and traced; print one table."""
    ok = True
    rows = []
    for workload in MANIFEST["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} --trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            rows.append((workload, "attempted/failed",
                         f"{result['attempted']}/{result['failed']}", "runs"))
            for name, metric in result["metrics"].items():
                rows.append((workload, name, f"{metric['value']:.6g}",
                             metric["unit"]))
    for row in rows:
        print(f"{row[0]:14s} {row[1]:45s} {row[2]:>14s} {row[3]}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload both ways; print a table")
    args = parser.parse_args(argv)
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload or --report is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
