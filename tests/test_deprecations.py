"""Back-compat guarantees of the API redesign.

Every name importable from ``repro`` before the redesign still imports, as
does the surface the redesign consolidated into the lazy-export table, and
``repro.simulate`` accepts a ``Workload`` wherever it accepts a task count.
The deprecated spellings that used to warn here (the legacy ``simulate``
argument order, ``repro.simulate_graph``, ``analyze.simulate_tree``,
``fig7.run(num_tasks)``, ``overlay_strategies(graphs | base_seed)``) are
gone; the pytest configuration now fails on any ``DeprecationWarning``
raised from ``repro`` code.
"""

import pytest

import repro

#: The exact public surface of ``repro`` before the front-door redesign.
PRE_REDESIGN_NAMES = [
    "__version__",
    "ReproError", "SimulationError", "PlatformError", "SolverError",
    "ProtocolError", "ExperimentError",
    "PlatformTree", "TreeNode",
    "generate_tree", "TreeGeneratorParams",
    "solve_tree", "solve_fork", "SteadyStateSolution", "ForkSolution",
    "simulate", "ProtocolConfig", "SimulationResult",
]

#: Names the redesign consolidated into the lazy-export table.
NEW_NAMES = [
    "Mutation", "MutationSchedule",
    "ChurnSchedule", "JoinEvent", "LeaveEvent",
    "FaultSchedule", "CrashEvent", "LinkFailureEvent", "LinkRepairEvent",
    "ProtocolEngine", "ProtocolVariant", "PriorityRule",
    "Tracer", "TraceEvent", "ascii_gantt",
    "RecoveryReport", "recovery_report", "recovery_latencies",
    "post_recovery_rate", "degraded_windows",
    "ExperimentScale",
    "selfish_rates",
    "Application", "Workload", "AppResult", "MultiAppEngine",
    "jain_index", "price_of_anarchy",
]


class TestPublicSurface:
    @pytest.mark.parametrize("name", PRE_REDESIGN_NAMES)
    def test_pre_redesign_name_still_imports(self, name):
        assert getattr(repro, name) is not None

    @pytest.mark.parametrize("name", NEW_NAMES)
    def test_new_surface_imports(self, name):
        assert getattr(repro, name) is not None

    def test_dir_lists_lazy_exports(self):
        listing = dir(repro)
        for name in PRE_REDESIGN_NAMES + NEW_NAMES:
            assert name in listing

    def test_all_matches_dir(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_lazy_access_is_cached(self):
        first = repro.FaultSchedule
        assert repro.__dict__["FaultSchedule"] is first

    def test_fault_surface_is_the_real_thing(self):
        from repro.platform.faults import FaultSchedule
        from repro.metrics.faults import recovery_report

        assert repro.FaultSchedule is FaultSchedule
        assert repro.recovery_report is recovery_report


class TestSimulateFrontDoor:
    def test_workload_object_matches_int(self):
        from repro.platform.generator import TreeGeneratorParams, generate_tree

        tree = generate_tree(TreeGeneratorParams(min_nodes=12, max_nodes=18),
                             seed=4)
        config = repro.ProtocolConfig.interruptible(3)
        via_int = repro.simulate(tree, 200, config).fingerprint()
        via_workload = repro.simulate(
            tree, repro.Workload(tasks=200), config).fingerprint()
        assert via_int == via_workload
