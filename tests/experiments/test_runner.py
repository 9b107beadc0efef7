"""Tests for the experiment CLI runner."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.runner import (
    ENGINE_NAMES,
    EXPERIMENT_NAMES,
    main,
    run_consistency,
    run_experiment,
    run_figure1,
    run_table1,
    run_table2,
)
from repro.experiments.serve import run_serve


class TestRunExperiment:
    def test_single_experiment(self):
        reports = run_experiment("table1")
        assert len(reports) == 1
        assert "Table 1" in reports[0]

    def test_all_experiments(self):
        reports = run_experiment("all", points=9)
        assert len(reports) == 7
        joined = "\n".join(reports)
        for marker in ("Table 1", "Table 2", "Table 3", "Table 4", "Figure 1", "Figure 2", "Figure 3"):
            assert marker in joined

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("table99")

    def test_individual_runners_return_text(self):
        assert "Table 1" in run_table1()
        assert "Table 2" in run_table2()
        assert "Figure 1" in run_figure1(points=9)

    def test_consistency_experiment_on_the_batch_engine(self):
        report = run_consistency(engine="batch", seed=3, trials=2_000)
        assert "engine=batch" in report
        for name in ("plain", "dissemination", "masking"):
            assert name in report

    def test_consistency_experiment_on_the_sequential_engine(self):
        report = run_consistency(engine="sequential", seed=3, trials=30)
        assert "engine=sequential" in report
        assert "register=masking" in report

    def test_consistency_validation(self):
        with pytest.raises(ExperimentError):
            run_consistency(engine="warp")
        with pytest.raises(ExperimentError):
            run_consistency(trials=0)
        with pytest.raises(ExperimentError):
            run_consistency(register_kind="warp")

    def test_consistency_register_kind_runs_the_write_back_oracle(self):
        # The orphaned read-repair register, driven declaratively: every
        # theorem scenario hosts it (its read path claims no b tolerance,
        # so no scenario is rejected), and the crash scenario stays fresh.
        report = run_consistency(
            engine="sequential", seed=3, trials=20, register_kind="write-back"
        )
        assert "register=write-back" in report
        for name in ("plain", "dissemination", "masking"):
            assert name in report

    def test_consistency_register_kind_skips_unhostable_scenarios(self):
        # Forcing the masking protocol only fits the thresholded system;
        # the plain/dissemination scenarios are skipped, not mis-measured.
        report = run_consistency(
            engine="batch", seed=3, trials=500, register_kind="masking"
        )
        assert "register=masking" in report
        assert "DisseminationR" not in report
        assert "R(n=64, q=15)" not in report

    def test_serve_experiment_reports_the_safety_verdict(self):
        reports = run_experiment("serve", clients=20, ops=2, seed=3)
        assert len(reports) == 1
        assert "Service load report" in reports[0]
        assert "safety verdict    OK" in reports[0]
        assert "clients=20" in reports[0]

    def test_serve_validation_becomes_an_experiment_error(self):
        with pytest.raises(ExperimentError):
            run_serve(clients=0)

    def test_serve_splits_writes_across_concurrent_writers(self):
        report = run_serve(
            clients=10, reads_per_client=2, seed=3, writers=3, keys=2,
            contention=0.5,
        )
        assert "writers=3" in report
        assert "contention=0.5" in report
        assert "safety verdict    OK" in report

    def test_contention_experiment_reports_the_grid_baseline(self):
        reports = run_experiment("contention", trials=2_000, seed=3)
        assert len(reports) == 1
        assert "grid baseline" in reports[0]
        assert "observed miss" in reports[0]
        assert "3 concurrent writers" in reports[0]

    def test_contention_experiment_writer_override(self):
        reports = run_experiment(
            "contention", trials=500, seed=3, writers=2, engine="batch"
        )
        assert "2 concurrent writers" in reports[0]

    def test_contention_validation(self):
        from repro.experiments.contention import run_contention

        with pytest.raises(ExperimentError):
            run_contention(writers=0)
        with pytest.raises(ExperimentError):
            run_contention(trials=0)
        with pytest.raises(ExperimentError):
            run_experiment("contention", engine="warp")


class TestCli:
    def test_main_success(self, capsys):
        assert main(["--experiment", "table1"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out

    def test_main_figure_with_points(self, capsys):
        assert main(["--experiment", "figure1", "--points", "9"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_main_rejects_unknown_choice(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "bogus"])

    def test_main_consistency_with_engine_and_seed(self, capsys):
        assert (
            main(
                [
                    "--experiment", "consistency",
                    "--engine", "batch",
                    "--seed", "7",
                    "--trials", "1000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine=batch" in out and "seed=7" in out

    def test_main_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "consistency", "--engine", "warp"])

    def test_main_consistency_register_kind_flag(self, capsys):
        assert (
            main(
                [
                    "consistency",
                    "--engine", "sequential",
                    "--trials", "20",
                    "--register-kind", "write-back",
                ]
            )
            == 0
        )
        assert "register=write-back" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["consistency", "--register-kind", "warp"])

    def test_main_accepts_the_positional_spelling(self, capsys):
        assert main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out
        assert main(["serve", "--clients", "10", "--ops", "2"]) == 0
        assert "safety verdict" in capsys.readouterr().out

    def test_main_explore_reports_an_all_safe_grid(self, capsys):
        assert main(["explore"]) == 0
        out = capsys.readouterr().out
        assert "masking-forger" in out and "dissemination-crash" in out
        assert "SAFE" in out and "VIOLATION" not in out

    def test_main_contention_and_writer_flags(self, capsys):
        assert (
            main(["contention", "--trials", "500", "--writers", "2", "--seed", "3"])
            == 0
        )
        out = capsys.readouterr().out
        assert "2 concurrent writers" in out and "grid baseline" in out
        assert (
            main(
                ["serve", "--clients", "10", "--ops", "2", "--writers", "2",
                 "--keys", "2", "--contention", "1.0"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "writers=2" in out and "contention=1.0" in out

    def test_main_serve_observability_flags(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "traces.jsonl"
        metrics_file = tmp_path / "metrics.json"
        code = main(
            [
                "serve",
                "--clients",
                "10",
                "--ops",
                "2",
                "--trace-sample",
                "1.0",
                "--trace-out",
                str(trace_file),
                "--metrics-out",
                str(metrics_file),
                "--monitor-epsilon",
            ]
        )
        assert code == 0
        assert "sampled traces" in capsys.readouterr().out
        traces = [
            json.loads(line) for line in trace_file.read_text().splitlines()
        ]
        assert traces and all("trace_id" in trace for trace in traces)
        document = json.loads(metrics_file.read_text())
        assert document["merged"]["counters"]["rpc_calls"] > 0
        assert document["epsilon_monitor"]["observed"] > 0

    def test_main_trace_out_implies_full_sampling(self, tmp_path, capsys):
        trace_file = tmp_path / "traces.jsonl"
        code = main(
            ["serve", "--clients", "10", "--ops", "2", "--trace-out", str(trace_file)]
        )
        assert code == 0
        capsys.readouterr()
        assert trace_file.read_text().strip()  # traces were sampled and dumped

    def test_main_rejects_conflicting_experiment_spellings(self):
        with pytest.raises(SystemExit):
            main(["table1", "--experiment", "table2"])

    def test_experiment_names_constant(self):
        assert "all" in EXPERIMENT_NAMES
        assert "consistency" in EXPERIMENT_NAMES
        assert "contention" in EXPERIMENT_NAMES
        assert "serve" in EXPERIMENT_NAMES
        assert "explore" in EXPERIMENT_NAMES
        assert ENGINE_NAMES == ("sequential", "batch")
        assert len(EXPERIMENT_NAMES) == 12
