"""Experiment orchestration: determinism, counterexample mode, reports."""

import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

import poisson_bm.runner as runner

from poisson_bm import (
    EvaluationGrid,
    InvalidThetaError,
    RunConfig,
    RunReport,
    ThetaConfig,
    build_sample,
    derive_stream,
    emit_plot_data,
    generate_samples,
    map_to_path_time,
    run_experiment,
    sample_poisson_path,
)
from poisson_bm.report import (
    ASSERTIONS_FILENAME,
    PLOT_COV_HEATMAP,
    PLOT_MARGINAL_HIST,
    PLOT_RATE_LOGLOG,
    REPORT_FILENAME,
    TIMINGS_FILENAME,
)
from poisson_bm.runconfig import ALL_CHECKS
from poisson_bm.runner import CHECKS


def minimal_config(**overrides):
    kwargs = dict(
        theta=ThetaConfig(cos_block=["1/2 pi"]),
        epsilons=(0.2,),
        replications_M=100,
        master_seed=4242,
        grid_points=64,
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


class TestGenerateSamples:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_rows_are_the_replications_in_order(self, workers):
        theta = ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=[1.1])
        cfg = minimal_config(theta=theta, epsilons=(0.4, 0.3), replications_M=40,
                             grid_points=4, workers=workers, checks=("covariance",))
        grid = EvaluationGrid.uniform(1.0, 4)
        block = generate_samples(cfg, grid, 1)
        assert block.values.shape == (40, 3, 5)
        assert block.epsilon == 0.3 and block.config is theta and block.grid is grid
        horizon = map_to_path_time(1.0, 0.3)
        for r in (0, 17, 39):
            path = sample_poisson_path(horizon, derive_stream(4242, 1, r))
            assert np.array_equal(block.values[r], build_sample(path, 0.3, theta, grid).values)


    @pytest.mark.parametrize(
        "workers,cpus,M,want",
        [(100_000, 2, 40, 2), (100_000, None, 40, 1), (3, 8, 40, 3), (8, 64, 5, 5)],
    )
    def test_pool_size_is_bounded_by_chunks_and_cpus(
        self, monkeypatch, workers, cpus, M, want
    ):
        sizes = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records the size, runs in process."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        grid = EvaluationGrid.uniform(1.0, 2)
        cfg = minimal_config(replications_M=M, grid_points=2, workers=workers,
                             checks=("covariance",))
        block = generate_samples(cfg, grid, 0)
        assert sizes == [want]
        serial = generate_samples(replace(cfg, workers=1), grid, 0)
        assert block.values.tobytes() == serial.values.tobytes()


class TestRunExperiment:
    def test_check_table_covers_every_check(self):
        assert tuple(CHECKS) == ALL_CHECKS

    def test_every_check_is_a_function_of_its_block(self):
        for check in CHECKS.values():
            assert list(inspect.signature(check).parameters) == ["block"], check.__name__

    def test_minimal_smoke_run_covariance_passes(self):
        report = run_experiment(minimal_config())
        cov = next(
            c for c in report.results[0]["checks"] if c["name"] == "covariance"
        )
        assert cov["pass"]

    @pytest.mark.parametrize("sin_block", [(), (2.2,)], ids=["d1", "d2"])
    def test_every_requested_check_appears_once_per_epsilon(self, sin_block):
        # every check that runs asserts something: none passes vacuously
        cfg = minimal_config(
            theta=ThetaConfig(cos_block=["1/2 pi"], sin_block=sin_block),
            epsilons=(0.3, 0.2),
            replications_M=120,
            grid_points=4,
        )
        report = run_experiment(cfg)
        assert len(report.results) == 2
        for block in report.results:
            names = [c["name"] for c in block["checks"]]
            assert names == list(cfg.resolved_checks)
            for check in block["checks"]:
                assert isinstance(check["pass"], bool)
                assert check["assertions"], check["name"]

    def test_invalid_theta_refused_with_report(self):
        cfg = minimal_config(theta=ThetaConfig(cos_block=["1/2 pi", "3/2 pi"]))
        with pytest.raises(InvalidThetaError) as exc_info:
            run_experiment(cfg)
        hyp = exc_info.value.hypothesis
        assert hyp["valid"] is False
        assert hyp["violations"][0]["rule"] == "SUM_2PI"

    def test_counterexample_mode_flags_degenerate_pair(self):
        cfg = minimal_config(
            theta=ThetaConfig(cos_block=["1/2 pi", "3/2 pi"]),
            allow_invalid_theta=True,
            replications_M=120,
            grid_points=8,
            checks=("covariance",),
        )
        report = run_experiment(cfg)
        cov = report.results[0]["checks"][0]
        flagged = cov["data"]["degenerate_pairs"]
        assert flagged == [{"i": 1, "j": 2, "correlation": pytest.approx(1.0, abs=1e-12)}]
        # the off-diagonal band check honestly fails for a degenerate pair
        assert not cov["pass"]
        assert not report.all_pass

    def test_zero_component_gives_failing_assertions_with_reasons(self):
        # sin(pi * N) is identically zero: ratios and standardized moments
        # of that component do not exist
        cfg = minimal_config(
            theta=ThetaConfig(cos_block=["1/2 pi"], sin_block=["pi"]),
            allow_invalid_theta=True,
            replications_M=200,
            grid_points=4,
        )
        report = run_experiment(cfg)
        checks = {c["name"]: c for c in report.results[0]["checks"]}
        spread = {a["name"]: a for a in checks["fourth_moment"]["assertions"]}
        assert spread["r4_spread[1]"]["pass"] and "reason" not in spread["r4_spread[1]"]
        assert not spread["r4_spread[2]"]["pass"]
        assert "E[Delta^4] is exactly zero" in spread["r4_spread[2]"]["reason"]
        normality = {a["name"]: a for a in checks["normality"]["assertions"]}
        for name in ("skew[2]", "kurt[2]", "ks[2]"):
            assert not normality[name]["pass"]
            assert normality[name]["reason"] == "degenerate input: zero variance"
        assert "reason" not in normality["ks[1]"]
        assert list(checks["normality"]["data"]["histograms"]) == ["comp_1"]
        sweep = report.summary["fourth_moment_sweep"]
        assert not sweep["pass"] and "reason" in sweep
        assert not report.all_pass

    def test_zero_cross_moment_gives_failing_rate_fit(self):
        cfg = minimal_config(
            theta=ThetaConfig(cos_block=["1/2 pi"], sin_block=["pi"]),
            allow_invalid_theta=True,
            epsilons=(0.4, 0.28, 0.2),
            replications_M=120,
            grid_points=4,
            checks=("cross_moments",),
        )
        report = run_experiment(cfg)
        (fit,) = report.summary["rate_fits"]
        assert not fit["pass"] and not fit["pass_slope"] and not fit["pass_domination"]
        assert "no log-log slope" in fit["reason"]
        assert not report.all_pass

    def test_stroock_check_included_and_passing(self):
        cfg = minimal_config(
            theta=ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True),
            epsilons=(0.1,),
            replications_M=1500,
            grid_points=8,
            checks=("stroock",),
        )
        report = run_experiment(cfg)
        stroock = report.results[0]["checks"][0]
        assert stroock["data"]["rescaled"] is True
        assert stroock["assertions"][0]["target"] == 1.0
        assert stroock["pass"]

    def test_rate_summary_shape(self):
        cfg = minimal_config(
            theta=ThetaConfig(cos_block=["1/2 pi"], sin_block=[2.2]),
            epsilons=(0.4, 0.28, 0.2),
            replications_M=200,
            grid_points=4,
            checks=("cross_moments",),
        )
        report = run_experiment(cfg)
        fits = report.summary["rate_fits"]
        assert len(fits) == 1
        fit = fits[0]
        assert fit["kind"] == "cossin"
        assert len(fit["points"]) == 3
        for point in fit["points"]:
            assert point["bound_total"] > 0

    def test_workers_do_not_change_report_bytes(self):
        cfg1 = minimal_config(replications_M=120, grid_points=4)
        cfg4 = minimal_config(replications_M=120, grid_points=4, workers=4)
        r1 = run_experiment(cfg1)
        r4 = run_experiment(cfg4)
        assert r1.to_json_text() == r4.to_json_text()

    def test_repeat_runs_identical(self):
        cfg = minimal_config(replications_M=120, grid_points=4)
        assert run_experiment(cfg).to_json_text() == run_experiment(cfg).to_json_text()


class TestReportFiles:
    def test_write_and_reload(self, tmp_path):
        cfg = minimal_config(replications_M=120, grid_points=4, output_dir=tmp_path)
        report = run_experiment(cfg)
        path = report.write(cfg.output_dir)
        assert path.name == REPORT_FILENAME
        assert (tmp_path / ASSERTIONS_FILENAME).exists()
        assert (tmp_path / TIMINGS_FILENAME).exists()

        doc = json.loads(path.read_text())
        assert "timings" not in doc  # wall-clock stays out of the canonical report
        assert "workers" not in doc["config"]

        loaded = RunReport.from_json_file(path)
        assert loaded.to_json_text() == report.to_json_text()

    def test_zero_component_report_is_strict_json(self, tmp_path):
        # sin(pi * N) = 0: its correlations and moment ratios do not exist
        cfg = minimal_config(
            theta=ThetaConfig(cos_block=["1/2 pi"], sin_block=["pi"]),
            allow_invalid_theta=True,
            replications_M=200,
            grid_points=4,
        )
        path = run_experiment(cfg).write(tmp_path)

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads(path.read_text(), parse_constant=refuse)
        checks = {c["name"]: c for c in doc["results"][0]["checks"]}
        assert checks["covariance"]["data"]["correlation"][0][1] is None
        skew = next(a for a in checks["normality"]["assertions"] if a["name"] == "skew[2]")
        assert skew["value"] is None and "reason" in skew
        # the flat table keeps its own spelling of a missing statistic, also
        # when it is written again from the reloaded report
        csv_text = (tmp_path / ASSERTIONS_FILENAME).read_text()
        assert ",skew[2],nan," in csv_text
        assert RunReport.from_json_file(path).assertions_csv_text() == csv_text

    def test_assertions_csv_layout(self, tmp_path):
        cfg = minimal_config(replications_M=120, grid_points=4, output_dir=tmp_path)
        report = run_experiment(cfg)
        report.write(cfg.output_dir)
        lines = (tmp_path / ASSERTIONS_FILENAME).read_text().splitlines()
        assert lines[0] == "epsilon,check,assertion,value,std_error,target,band,pass"
        assert len(lines) > 5


@pytest.fixture(scope="module")
def plot_report():
    cfg = RunConfig(
        theta=ThetaConfig(cos_block=["1/2 pi"], sin_block=[2.2]),
        epsilons=(0.4, 0.28, 0.2),
        replications_M=200,
        master_seed=7,
        grid_points=4,
    )
    return run_experiment(cfg)


class TestPlotData:

    def test_rate_loglog_rows(self, plot_report):
        csv_text = emit_plot_data(plot_report, PLOT_RATE_LOGLOG)
        lines = csv_text.splitlines()
        assert lines[0] == "log_epsilon,log_abs_estimate,log_bound_total"
        assert len(lines) == 1 + 3
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_cov_heatmap_rows(self, plot_report):
        csv_text = emit_plot_data(plot_report, PLOT_COV_HEATMAP)
        lines = csv_text.splitlines()
        assert lines[0] == "i,j,value,std_error"
        assert len(lines) == 1 + 4  # d = 2

    def test_marginal_hist_conservation(self, plot_report):
        csv_text = emit_plot_data(plot_report, PLOT_MARGINAL_HIST, component=1)
        lines = csv_text.splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 1 + 50
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 200  # counts sum to the replication count

    def test_missing_check_errors(self, plot_report):
        with pytest.raises(ValueError):
            emit_plot_data(plot_report, PLOT_COV_HEATMAP, epsilon=0.123)
        with pytest.raises(ValueError):
            emit_plot_data(plot_report, "SPIROGRAPH")
