"""Tests for the top-level package surface and assorted uncovered paths."""

import subprocess
import sys

import pytest

import repro


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_platform_exports(self):
        assert repro.PlatformTree is not None
        assert repro.TreeNode is not None
        tree = repro.generate_tree(repro.TreeGeneratorParams(
            min_nodes=3, max_nodes=5), seed=1)
        assert 3 <= tree.num_nodes <= 5

    def test_solver_exports(self):
        tree = repro.PlatformTree.single_node(4)
        assert repro.solve_tree(tree).rate == repro.solve_fork(4, []).rate
        assert repro.SteadyStateSolution is not None
        assert repro.ForkSolution is not None

    def test_protocol_exports(self):
        result = repro.simulate(repro.PlatformTree.single_node(2), 5,
                                repro.ProtocolConfig.interruptible(3))
        assert isinstance(result, repro.SimulationResult)

    def test_harness_exports(self):
        assert repro.HarnessConfig is not None
        assert repro.RetryPolicy is not None
        assert repro.RunCoverage is not None
        assert repro.SeedFailure is not None
        assert repro.CheckpointStore is not None
        config = repro.HarnessConfig(max_retries=1)
        assert config.policy().max_retries == 1

    def test_simulation_result_fingerprint(self):
        tree = repro.PlatformTree.single_node(2)
        config = repro.ProtocolConfig.interruptible(3)
        a = repro.simulate(tree, 5, config).fingerprint()
        b = repro.simulate(tree, 5, config).fingerprint()
        c = repro.simulate(tree, 6, config).fingerprint()
        assert a == b  # deterministic reruns match exactly
        assert a != c
        assert len(a) == 64  # sha256 hex

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_error_hierarchy(self):
        for exc in (repro.SimulationError, repro.PlatformError,
                    repro.SolverError, repro.ProtocolError,
                    repro.ExperimentError):
            assert issubclass(exc, repro.ReproError)


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fig7"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "Figure 7" in proc.stdout

    def test_help_lists_experiments(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        for name in ("fig4", "table2", "analyze", "simulate"):
            assert name in proc.stdout


class TestReporting:
    def test_format_table_alignment(self):
        from repro.experiments.reporting import format_table

        text = format_table(["name", "value"],
                            [["a", 1], ["long-name", 22]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        # numeric column right-aligned
        assert lines[3].endswith("value") or lines[3].rstrip().endswith("-")
        assert lines[-1].endswith("22")

    def test_fmt_helpers(self):
        from repro.experiments.reporting import fmt_num, fmt_opt, fmt_pct

        assert fmt_pct(12.345) == "12.3%"
        assert fmt_num(1.23456, 2) == "1.23"
        assert fmt_opt(None) == "-"
        assert fmt_opt(7) == "7"


class TestConditionEdgeCases:
    def test_condition_over_already_failed_processed_child(self):
        from repro.sim import AllOf, Environment

        env = Environment()
        bad = env.event()
        bad.fail(RuntimeError("early"))
        bad.defused = True
        env.run()  # bad is now processed
        cond = AllOf(env, [bad, env.timeout(1)])
        with pytest.raises(RuntimeError, match="early"):
            env.run(until=cond)

    def test_run_until_already_processed_event(self):
        from repro.sim import Environment

        env = Environment()
        ev = env.event()
        ev.succeed("done")
        env.run()
        assert env.run(until=ev) == "done"  # returns immediately


class TestSimExports:
    """The kernel's public surface: calendar entries are the handles, so
    there is no timer class to export."""

    def test_kernel_exports(self):
        import repro.sim as sim

        assert "Timer" not in sim.__all__
        assert not hasattr(sim, "Timer")
        for name in sim.__all__:
            assert getattr(sim, name) is not None

    def test_handle_api(self):
        from repro.sim import Environment

        env = Environment()
        out = []
        handle = env.call_at(4, out.append, "x")
        assert (handle[0], handle[3], handle[4]) == (4, out.append, ("x",))
        env.cancel(handle)
        env.run()
        assert out == [] and env.now == 0
