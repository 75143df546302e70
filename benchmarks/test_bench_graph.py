"""Benchmark — the graph engine's shared-link contention path.

A leaf-spine fabric with the head-election overlay keeps several flows
in flight over shared access links, so every flow start/finish pays a
max-min reallocation and (often) a timer reschedule.  The workload body
lives in ``workloads.py`` so ``perf.py`` (and the committed
``BENCH_kernel.json`` baseline, once regenerated) measures the same code.
"""

from workloads import run_engine_graph_faults, run_engine_graph_leafspine


def test_bench_graph_leafspine(benchmark):
    events = benchmark.pedantic(run_engine_graph_leafspine, args=(2_000,),
                                rounds=1, iterations=1)
    # A 2000-task contended run processes well over one event per task.
    assert events >= 4_000


def test_bench_graph_faults(benchmark):
    tasks = benchmark.pedantic(run_engine_graph_faults, args=(2_000,),
                               rounds=1, iterations=1)
    assert tasks == 2_000
