"""Tests for the CLI and the ablation experiments."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS, ablation
from repro.experiments.cli import (build_parser, main, resolve_harness,
                                   resolve_scale)
from repro.experiments.common import ExperimentScale


class TestParser:
    def test_all_experiments_listed(self):
        parser = build_parser()
        args = parser.parse_args(["fig4"])
        assert args.experiment == "fig4"
        for name in EXPERIMENTS:
            parser.parse_args([name])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_scale_resolution(self):
        args = build_parser().parse_args(
            ["fig4", "--scale", "smoke", "--trees", "5"])
        scale = resolve_scale(args)
        assert scale.trees == 5
        assert scale.tasks == ExperimentScale.smoke().tasks

    def test_paper_scale(self):
        args = build_parser().parse_args(["fig4", "--scale", "paper"])
        scale = resolve_scale(args)
        assert scale.trees == 25_000 and scale.threshold == 300

    def test_threshold_override(self):
        args = build_parser().parse_args(["fig4", "--threshold", "42"])
        assert resolve_scale(args).threshold == 42

    def test_seed_override(self):
        args = build_parser().parse_args(["fig4", "--seed", "99"])
        assert resolve_scale(args).base_seed == 99

    def test_warp_flag_threads_through_scale(self):
        args = build_parser().parse_args(["fig4", "--warp"])
        assert resolve_scale(args).warp
        assert not resolve_scale(build_parser().parse_args(["fig4"])).warp

    def test_warp_flag_survives_other_overrides(self):
        args = build_parser().parse_args(
            ["fig4", "--warp", "--seed", "9", "--threshold", "42",
             "--trees", "5"])
        scale = resolve_scale(args)
        assert scale.warp and scale.base_seed == 9
        assert scale.threshold == 42 and scale.trees == 5

    def test_telemetry_off_by_default(self):
        args = build_parser().parse_args(["fig4"])
        assert resolve_scale(args).telemetry is None

    def test_telemetry_flag_attaches_config(self):
        args = build_parser().parse_args(["fig4", "--telemetry"])
        scale = resolve_scale(args)
        assert scale.telemetry is not None
        assert scale.telemetry.sample_dt == 200  # ensemble default

    def test_telemetry_out_implies_telemetry(self):
        args = build_parser().parse_args(
            ["fig4", "--telemetry-out", "runs.jsonl"])
        assert resolve_scale(args).telemetry is not None
        assert args.telemetry_out == "runs.jsonl"

    def test_telemetry_sample_dt_override(self):
        args = build_parser().parse_args(
            ["fig4", "--telemetry", "--telemetry-sample-dt", "25"])
        assert resolve_scale(args).telemetry.sample_dt == 25


class TestResolveHarness:
    def test_defaults_are_resilient_but_uncheckpointed(self):
        args = build_parser().parse_args(["fig4"])
        harness = resolve_harness(args)
        assert harness.checkpoint_dir is None
        assert not harness.resume
        assert harness.max_retries == 2
        assert harness.seed_timeout is None

    def test_flags_carry_through(self, tmp_path):
        args = build_parser().parse_args(
            ["fig4", "--checkpoint-dir", str(tmp_path), "--resume",
             "--max-retries", "5", "--seed-timeout", "30"])
        harness = resolve_harness(args)
        assert harness.checkpoint_dir == str(tmp_path)
        assert harness.resume
        assert harness.max_retries == 5
        assert harness.seed_timeout == 30.0

    def test_resume_without_checkpoint_dir_rejected(self):
        args = build_parser().parse_args(["fig4", "--resume"])
        with pytest.raises(ExperimentError, match="checkpoint_dir"):
            resolve_harness(args)


class TestMain:
    def test_fig7_runs_and_prints(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "completed in" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["fig7", "--out", str(target)]) == 0
        assert "Figure 7" in target.read_text()

    def test_coverage_summary_on_stderr_not_stdout(self, capsys):
        assert main(["fig7"]) == 0
        captured = capsys.readouterr()
        assert "coverage:" in captured.err
        assert "coverage:" not in captured.out

    def test_telemetry_summary_and_jsonl_export(self, tmp_path, capsys):
        from repro.telemetry import load_jsonl

        target = tmp_path / "runs.jsonl"
        assert main(["fig4", "--scale", "smoke", "--trees", "2",
                     "--tasks", "200", "--telemetry", "--telemetry-out",
                     str(target)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry ensemble summary" in out
        snapshots = load_jsonl(str(target))
        assert snapshots
        assert all(s.counters["completed"] == 200 for s in snapshots)

    def test_warp_report_identical_to_exact(self, capsys):
        assert main(["fig7"]) == 0
        exact = capsys.readouterr().out
        assert main(["fig7", "--warp"]) == 0
        warped = capsys.readouterr().out
        import re

        strip = lambda text: re.sub(r"completed in [0-9.]+s", "", text)
        assert strip(warped) == strip(exact)

    def test_profile_prints_stats_to_stderr(self, capsys):
        assert main(["fig7", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "Ordered by: cumulative time" in captured.err
        assert "Ordered by: cumulative time" not in captured.out
        assert "Figure 7" in captured.out

    def test_profile_forces_single_worker(self, capsys):
        assert main(["fig7", "--profile", "--workers", "4"]) == 0
        assert "--profile forces --workers 1" in capsys.readouterr().err

    def test_checkpointed_run_then_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(["fig7", "--checkpoint-dir", ckpt]) == 0
        first = capsys.readouterr().out
        assert main(["fig7", "--checkpoint-dir", ckpt, "--resume"]) == 0
        captured = capsys.readouterr()
        assert "3 resumed from checkpoint" in captured.err
        # Identical stdout report, timing lines aside.
        import re

        strip = lambda text: re.sub(r"completed in [0-9.]+s", "", text)
        assert strip(captured.out) == strip(first)


class TestTopologyFlag:
    HONOURED = ("fig4", "fig5", "fig6", "table1", "table2")

    def test_honouring_experiments(self):
        from repro.experiments.cli import TOPOLOGY_EXPERIMENTS

        assert TOPOLOGY_EXPERIMENTS == self.HONOURED

    @pytest.mark.parametrize("name", ["faults", "priorities", "decay",
                                      "churn", "apps", "fig3", "fig7",
                                      "overlays"])
    def test_ignoring_experiment_rejects_topology(self, name):
        with pytest.raises(SystemExit) as info:
            main([name, "--topology", "leafspine", "--trees", "1"])
        message = str(info.value)
        assert f"'{name}' does not honour --topology leafspine" in message
        for honoured in self.HONOURED:
            assert honoured in message

    def test_tree_topology_is_the_default_everywhere(self, capsys):
        assert main(["fig7", "--topology", "tree"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_all_skips_ignoring_experiments(self, capsys):
        assert main(["all", "--topology", "star", "--trees", "1",
                     "--tasks", "60"]) == 0
        captured = capsys.readouterr()
        assert ("all --topology star: skipping apps, churn, decay, faults, "
                "fig3, fig7, overlays, priorities" in captured.err)
        ran = [line.split()[0].lstrip("[") for line in
               captured.out.splitlines() if "completed in" in line]
        assert tuple(ran) == self.HONOURED


class TestPriorityAblation:
    def test_bandwidth_centric_at_least_as_good(self):
        from repro.platform.generator import TreeGeneratorParams

        scale = ExperimentScale(trees=5, tasks=800)
        result = ablation.priority_rules(
            scale, TreeGeneratorParams(min_nodes=10, max_nodes=40))
        bw = result.mean_normalized_rate["non-IC, FB=3"]
        cc = result.mean_normalized_rate["non-IC, FB=3 [compute-centric]"]
        fifo = result.mean_normalized_rate["non-IC, FB=3 [fifo]"]
        assert bw >= cc - 0.02
        assert bw >= fifo - 0.02
        text = ablation.format_priority_result(result)
        assert "Ablation" in text


class TestOverlayAblation:
    def test_strategies_compared(self):
        result = ablation.overlay_strategies(
            ExperimentScale(trees=5, tasks=2), hosts=20)
        assert set(result.mean_relative_rate) == {
            "bfs", "shortest-path", "mst", "random"}
        for value in result.mean_relative_rate.values():
            assert 0 < value <= 1.0 + 1e-9
        assert sum(result.wins.values()) == 5
        text = ablation.format_overlay_result(result)
        assert "overlay" in text


class TestResolveScaleMatrix:
    """Every preset × every override combination resolves predictably."""

    PRESETS = {
        "default": ExperimentScale(),
        "smoke": ExperimentScale.smoke(),
        "paper": ExperimentScale.paper(),
    }

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("overrides", [
        [],
        ["--trees", "7"],
        ["--tasks", "123"],
        ["--seed", "42"],
        ["--threshold", "17"],
        ["--trees", "7", "--tasks", "123", "--seed", "42",
         "--threshold", "17"],
    ], ids=["none", "trees", "tasks", "seed", "threshold", "all"])
    def test_matrix(self, preset, overrides):
        base = self.PRESETS[preset]
        args = build_parser().parse_args(["fig4", "--scale", preset]
                                         + overrides)
        scale = resolve_scale(args)
        assert scale.trees == (7 if "--trees" in overrides else base.trees)
        assert scale.tasks == (123 if "--tasks" in overrides else base.tasks)
        assert scale.base_seed == (42 if "--seed" in overrides
                                   else base.base_seed)
        if "--threshold" in overrides:
            assert scale.threshold == 17
        else:
            # With no explicit window the threshold re-derives from the
            # (possibly overridden) task count.
            expected = ExperimentScale(
                trees=scale.trees, tasks=scale.tasks,
                threshold_window=base.threshold_window)
            assert scale.threshold == expected.threshold


class TestSvgGating:
    """SVG must only be rendered (and repro.viz imported) with --svg."""

    def _drop_viz(self):
        import sys

        for name in [m for m in sys.modules if m.startswith("repro.viz")]:
            del sys.modules[name]

    def test_no_svg_flag_skips_viz_entirely(self, capsys):
        import sys

        self._drop_viz()
        assert main(["fig7"]) == 0
        assert not any(m.startswith("repro.viz") for m in sys.modules)
        assert "[figure written" not in capsys.readouterr().out

    def test_svg_flag_renders_and_writes(self, tmp_path, capsys):
        assert main(["fig7", "--svg", str(tmp_path)]) == 0
        svg = (tmp_path / "fig7.svg").read_text()
        assert svg.lstrip().startswith("<svg")
        assert "[figure written" in capsys.readouterr().out

    def test_runners_accept_svg_keyword(self):
        scale = ExperimentScale(trees=5, tasks=100)
        report, svg = EXPERIMENTS["fig7"](scale, workers=1, svg=False)
        assert "Figure 7" in report and svg is None
        report, svg = EXPERIMENTS["fig7"](scale, workers=1, svg=True)
        assert svg is not None and "<svg" in svg


class TestFig3Workers:
    def test_parallel_matches_serial(self):
        from repro.experiments import fig3

        scale = ExperimentScale(trees=5, tasks=300)
        serial = fig3.run(scale, candidates=4, workers=1)
        parallel = fig3.run(scale, candidates=4, workers=2)
        assert serial == parallel

    def test_progress_reported(self):
        from repro.experiments import fig3

        calls = []
        scale = ExperimentScale(trees=5, tasks=300)
        fig3.run(scale, candidates=4,
                 progress=lambda done, total: calls.append((done, total)))
        assert calls and calls[0] == (1, 4)
        assert all(total == 4 for _done, total in calls)

    def test_bad_workers_rejected(self):
        from repro.errors import ExperimentError
        from repro.experiments import fig3

        with pytest.raises(ExperimentError, match="workers"):
            fig3.run(ExperimentScale(trees=5, tasks=300), workers=0)
