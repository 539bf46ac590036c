"""Experiment orchestration: determinism, counterexample mode, reports."""

import concurrent.futures
import hashlib
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import poisson_bm.runner as runner

from poisson_bm import (
    BuildPlan,
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
    rate_fit,
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
from poisson_bm.runner import CHECKS
from simd import other_bytes

ALL_CHECKS = tuple(CHECKS)


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


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and the
    epsilon index of each map, and makes each chunk in process as it is read."""

    sizes: list[int]
    generated: list[int]

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        self.generated.append(items[0][1])  # a job is (config, eps_index, start, stop)
        return map(fn, items)


@pytest.fixture
def in_process_pool(monkeypatch):
    """``InProcessPool`` in place of ``concurrent.futures.ProcessPoolExecutor``, which
    ``runner._pool`` imports where it starts a pool, with empty records."""
    monkeypatch.setattr(InProcessPool, "sizes", [], raising=False)
    monkeypatch.setattr(InProcessPool, "generated", [], raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return InProcessPool


class TestGenerateSamples:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_rows_are_the_replications_in_order(self, workers):
        theta = ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=[1.1])
        cfg = minimal_config(theta=theta, epsilons=(0.4, 0.3), replications_M=40,
                             grid_points=4, workers=workers, checks=("covariance",))
        grid = EvaluationGrid(1.0, 4)
        block = generate_samples(cfg, grid, 1)
        assert block.values.shape == (40, 3, 5)
        assert block.epsilon == 0.3 and block.config is theta and block.grid is grid
        horizon = map_to_path_time(1.0, 0.3)
        plan = BuildPlan(theta, 0.3, grid)
        for r in (0, 17, 39):
            path = sample_poisson_path(horizon, derive_stream(4242, 1, r))
            assert np.array_equal(block.values[r], build_sample(path, plan).values[0])


    # want: the processes that make rows; at 1 no pool starts
    @pytest.mark.parametrize(
        "workers,cpus,M,want",
        [(100_000, 2, 40, 2), (100_000, None, 40, 1), (100_000, 1, 40, 1), (3, 8, 40, 3),
         (8, 64, 5, 5)],
    )
    def test_pool_size_is_bounded_by_chunks_and_cpus(
        self, monkeypatch, in_process_pool, workers, cpus, M, want
    ):
        sizes = in_process_pool.sizes
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        grid = EvaluationGrid(1.0, 2)
        cfg = minimal_config(replications_M=M, grid_points=2, workers=workers,
                             checks=("covariance",))
        block = generate_samples(cfg, grid, 0)
        assert sizes == ([want] if want > 1 else [])
        serial = generate_samples(replace(cfg, workers=1), grid, 0)
        assert block.values.tobytes() == serial.values.tobytes()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 CPUs")
    def test_the_process_that_makes_the_rows_makes_their_plan(self, monkeypatch):
        pids = []

        def recording_plan(*args):
            pids.append(os.getpid())  # a pool worker appends to its own copy
            return BuildPlan(*args)

        monkeypatch.setattr(runner, "BuildPlan", recording_plan)
        grid = EvaluationGrid(1.0, 2)
        cfg = minimal_config(replications_M=40, grid_points=2, workers=2,
                             checks=("covariance",))
        pooled = generate_samples(cfg, grid, 0)
        assert pids.count(os.getpid()) == 0
        for calls in (1, 2):
            serial = generate_samples(replace(cfg, workers=1), grid, 0)
            assert pids == [os.getpid()] * calls
        assert pooled.values.tobytes() == serial.values.tobytes()

    def test_pooled_chunks_are_gathered_into_one_block(self, in_process_pool):
        M, steps = 400, 64
        cfg = minimal_config(replications_M=M, grid_points=steps, workers=2,
                             checks=("covariance",))
        tracemalloc.start()
        try:
            block = generate_samples(cfg, EvaluationGrid(1.0, steps), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block, one chunk of 16 and one replication's work; not the
        # chunks and their concatenation, two blocks
        assert block.values.nbytes == M * (steps + 1) * 8
        assert peak < 1.5 * block.values.nbytes

    @pytest.mark.parametrize("steps,T", [(4, 1.0), (2, 2.0)])
    def test_grid_must_be_the_configs_own(self, steps, T):
        # validate capped the block at grid_points + 1 times to horizon_T
        cfg = minimal_config(replications_M=4, grid_points=2, checks=("covariance",))
        with pytest.raises(ValueError, match="is not the config's grid of 2 steps to T = 1.0"):
            generate_samples(cfg, EvaluationGrid(T, steps), 0)


class TestRunExperiment:
    def test_every_check_is_a_function_of_its_block(self):
        for check in CHECKS.values():
            fn = check.block_fn
            assert list(inspect.signature(fn).parameters) == ["block"], fn.__name__

    def test_each_epsilons_block_is_dropped_before_the_next_is_made(self, monkeypatch):
        made = []
        generate = runner.generate_samples

        def recording(config, grid, eps_index, pool=None):
            # run_experiment no longer reaches any earlier block, nor its values
            assert [ref() for refs in made for ref in refs] == [None] * (2 * len(made))
            block = generate(config, grid, eps_index, pool)
            made.append((weakref.ref(block), weakref.ref(block.values)))
            return block

        monkeypatch.setattr(runner, "generate_samples", recording)
        theta = ThetaConfig(cos_block=["pi", "1/2 pi"], sin_block=[1.1], allow_pi_in_cos=True)
        cfg = minimal_config(theta=theta, epsilons=(0.4, 0.3, 0.2), replications_M=120,
                             grid_points=4, checks=ALL_CHECKS)
        run_experiment(cfg)
        assert len(made) == 3

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

    def test_all_pass_folds_in_the_anchor(self, monkeypatch):
        # every per-epsilon check and the sweep pass; only the anchor fails
        monkeypatch.setattr(runner, "ANCHOR_HALF_WIDTH", 0.0)
        cfg = minimal_config(epsilons=(0.1, 0.05), replications_M=400, master_seed=5,
                             grid_points=4, checks=("fourth_moment",))
        report = run_experiment(cfg)
        assert all(c["pass"] for block in report.results for c in block["checks"])
        sweep = report.summary["fourth_moment_sweep"]
        assert sweep["pass"] and not sweep["anchor"]["pass"]
        assert report.summary["all_pass"] is False

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

    def test_stroock_check_unrescaled_under_allow_invalid_theta(self):
        # pi in cos_block without the flag is inadmissible; the counterexample
        # mode still runs the check, on the unrescaled component, at 2T
        theta = ThetaConfig(cos_block=["pi"])
        cfg = minimal_config(theta=theta, allow_invalid_theta=True, horizon_T=0.5,
                             epsilons=(0.1,), replications_M=1500, grid_points=8,
                             checks=("stroock",))
        assert BuildPlan(theta, 0.1, cfg.grid).rescaled == ()
        assert BuildPlan(replace(theta, allow_pi_in_cos=True), 0.1, cfg.grid).rescaled == (0,)
        report = run_experiment(cfg)
        assert report.hypothesis["pi_rescaled_indices"] == []
        stroock = report.results[0]["checks"][0]
        assert stroock["data"]["rescaled"] is False
        assert stroock["assertions"][0]["target"] == 1.0  # 2T
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

    def test_slope_is_the_fit_of_the_floored_magnitudes(self):
        cfg = minimal_config(
            theta=ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=[1.1]),
            epsilons=(0.4, 0.28, 0.2),
            replications_M=200,
            grid_points=4,
            checks=("cross_moments",),
        )
        fits = run_experiment(cfg).summary["rate_fits"]
        assert len(fits) == 3
        below_se = 0
        for fit in fits:
            points = fit["points"]
            for p in points:
                assert p["floored_abs_estimate"] == max(abs(p["estimate"]), p["std_error"])
                below_se += abs(p["estimate"]) < p["std_error"]
            assert fit["slope"] == rate_fit([p["epsilon"] for p in points],
                                            [p["floored_abs_estimate"] for p in points])
        assert below_se > 0  # some point is floored at its standard error

    def test_workers_do_not_change_report_bytes(self):
        cfg1 = minimal_config(replications_M=120, grid_points=4)
        cfg4 = minimal_config(replications_M=120, grid_points=4, workers=4)
        r1 = run_experiment(cfg1)
        r4 = run_experiment(cfg4)
        assert r1.to_json_text() == r4.to_json_text()

    def test_repeat_runs_identical(self):
        cfg = minimal_config(replications_M=120, grid_points=4)
        assert run_experiment(cfg).to_json_text() == run_experiment(cfg).to_json_text()

    def test_one_estimator_call_per_check_and_increment(self, monkeypatch):
        # each estimator returns every component or pair of one increment at once
        theta = ThetaConfig(cos_block=["pi", "1/2 pi"], sin_block=["1/2 pi", 2.2],
                            allow_pi_in_cos=True)
        cfg = minimal_config(theta=theta, epsilons=(0.4, 0.3), grid_points=4,
                             checks=ALL_CHECKS)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        per_eps = {
            "empirical_increment_covariance": 1,
            "quadratic_variation": 1,
            "cross_moment": 1,
            "fourth_moment_ratio": 7,  # the dyadic increments of [0, 1] to level 2
            "martingale_residual": 2,  # phi = 1 and the tanh product
            "stroock_variance_check": 1,
        }
        for name in per_eps:
            monkeypatch.setattr(runner, name, counted(name, getattr(runner, name)))
        report = run_experiment(cfg)
        assert [c["name"] for c in report.results[0]["checks"]] == list(ALL_CHECKS)
        assert calls == {name: n * len(cfg.epsilons) for name, n in per_eps.items()}

    @pytest.mark.parametrize("T,steps", [(0.9, 12), (1.7, 20), (5.3, 100)])
    def test_fourth_moment_gets_every_dyadic_window(self, T, steps):
        # k*T/p need not be a grid time bit for bit; the windows are grid indices
        theta = ThetaConfig(cos_block=["1/2 pi"], sin_block=[1.1])
        cfg = minimal_config(theta=theta, epsilons=(0.4,), replications_M=20,
                             horizon_T=T, grid_points=steps, checks=("fourth_moment",))
        (check,) = run_experiment(cfg).results[0]["checks"]
        times = EvaluationGrid(T, steps).times.tolist()
        want = [(times[k * steps // p], times[(k + 1) * steps // p])
                for p in (1, 2, 4) for k in range(p)]
        for c in (1, 2):
            got = [(r["s"], r["t"]) for r in check["data"]["ratios"] if r["component"] == c]
            assert got == want
            assert all(s in times and t in times for s, t in got)


# a run at workers 2 over 3 epsilons whose check raises at the second
# epsilon; prints what it raised and how many child processes are left
CHECK_RAISES_MIDWAY = """
import multiprocessing
import poisson_bm.runner as runner
from poisson_bm import RunConfig, ThetaConfig, run_experiment

seen = []

def covariance_raising_at_the_second_epsilon(block):
    seen.append(block.epsilon)
    if len(seen) == 2:
        raise RuntimeError("check raised midway")
    return [], {}

runner.CHECKS["covariance"] = runner.CHECKS["covariance"]._replace(
    block_fn=covariance_raising_at_the_second_epsilon)
config = RunConfig(theta=ThetaConfig(cos_block=["1/2 pi"]), epsilons=(0.4, 0.3, 0.2),
                   replications_M=40, master_seed=5, grid_points=2, workers=2,
                   checks=("covariance",))
try:
    run_experiment(config)
except RuntimeError as exc:
    print(exc)
print(len(multiprocessing.active_children()))
"""


class TestOnePoolPerRun:
    """``run_experiment`` starts at most one pool, shared by every epsilon,
    and leaves no process behind, also when a check raises."""

    @staticmethod
    def _config(**overrides):
        return minimal_config(**{**dict(epsilons=(0.4, 0.3, 0.2), replications_M=40,
                                        grid_points=2, workers=2, checks=("covariance",)),
                                 **overrides})

    def test_one_pool_for_every_epsilon(self, monkeypatch, in_process_pool):
        sizes, generated = in_process_pool.sizes, in_process_pool.generated
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
        cfg = self._config()
        pooled = run_experiment(cfg)
        assert sizes == [2]
        assert generated == [0, 1, 2]
        assert pooled.to_json_text() == run_experiment(replace(cfg, workers=1)).to_json_text()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 CPUs")
    def test_no_process_outlives_a_run(self):
        run_experiment(self._config())
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 CPUs")
    def test_no_process_outlives_a_check_that_raises(self):
        src = str(Path(runner.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-c", CHECK_RAISES_MIDWAY],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["check raised midway", "0"]
        assert "ResourceWarning" not in proc.stderr


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

    def test_timings_per_generation_and_check(self, tmp_path):
        cfg = minimal_config(epsilons=(0.4, 0.2), replications_M=120, grid_points=4)
        report = run_experiment(cfg)
        report.write(tmp_path)
        lines = (tmp_path / TIMINGS_FILENAME).read_text().splitlines()[1:]
        expected = []
        for eps in ("0.4", "0.2"):
            expected += [f"epsilon={eps}/generate"]
            expected += [f"epsilon={eps}/{name}" for name in cfg.resolved_checks]
            expected += [f"epsilon={eps}"]
        assert [line.split(" = ")[0] for line in lines] == expected + ["total"]
        # the seconds do not reach the canonical report
        assert report.to_json_text() == replace(report, timings={}).to_json_text()

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

    def test_numpy_integer_fields_write_the_same_bytes(self, tmp_path):
        fields = dict(replications_M=120, grid_points=4, master_seed=4242, workers=1)
        sides = {"int": fields, "int64": {k: np.int64(v) for k, v in fields.items()}}
        for side, values in sides.items():
            run_experiment(minimal_config(**values)).write(tmp_path / side)
        for name in (REPORT_FILENAME, ASSERTIONS_FILENAME):
            want = (tmp_path / "int" / name).read_bytes()
            assert (tmp_path / "int64" / name).read_bytes() == want, name

    def test_numpy_flags_write_the_same_bytes(self, tmp_path):
        # an inadmissible vector (1/2 pi and 3/2 pi sum to 2 pi), run as a counterexample
        for side, flag in {"bool": True, "numpy": np.True_}.items():
            theta = ThetaConfig(cos_block=["pi", "1/2 pi", "3/2 pi"], allow_pi_in_cos=flag)
            cfg = minimal_config(theta=theta, replications_M=120, grid_points=4,
                                 allow_invalid_theta=flag)
            run_experiment(cfg).write(tmp_path / side)
        for name in (REPORT_FILENAME, ASSERTIONS_FILENAME):
            want = (tmp_path / "bool" / name).read_bytes()
            assert (tmp_path / "numpy" / name).read_bytes() == want, name

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


DEMO_REPORT = Path(__file__).resolve().parents[1] / "runs" / "demo" / REPORT_FILENAME

# sha256 of emit_plot_data(kind, epsilon, component) on the committed demo report
DEMO_PLOT_DIGESTS = {
    (PLOT_COV_HEATMAP, 0.2, 1):
        "cb1d9d84f6eb797b9e36886fa99753b06b37d7c0d4b28fddba251016bd9685a8",
    (PLOT_MARGINAL_HIST, 0.2, 1):
        "b4d7a40f7aa78f4f8eb7e07b1e0397fc8622570752aa29f49041ef3d42c8536a",
    (PLOT_MARGINAL_HIST, 0.2, 2):
        "93819ac7108c34efddc127e835576ba452d0aaf657aa808682ec01a4c1fcd103",
    (PLOT_COV_HEATMAP, 0.1, 1):
        "49e15aca7b9e708072dfd0db971ea5aa209a86d8fce2038a15f5216a789de0e7",
    (PLOT_MARGINAL_HIST, 0.1, 1):
        "5bf81d814c763687dee6ccf04c02fb73c454a672a3f8bb7fe90642cfc98eb179",
    (PLOT_MARGINAL_HIST, 0.1, 2):
        "7e8ba6984e21955558f5212be44a9f49eb983fe91dee665900999b144b691ba6",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPlotData:

    def test_rate_loglog_rows(self, plot_report):
        csv_text = emit_plot_data(plot_report, PLOT_RATE_LOGLOG)
        lines = csv_text.splitlines()
        assert lines[0] == "log_epsilon,log_abs_estimate,log_bound_total"
        assert len(lines) == 1 + 3
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_rate_loglog_bytes(self, plot_report):
        assert _sha256(emit_plot_data(plot_report, PLOT_RATE_LOGLOG)) == (
            "3180aa8eb823e1b73eaa3b0b0af72e3cbf871d793e289cb833fe7d9cbee9c9be"
        ), other_bytes("RATE_LOGLOG of a fresh run")

    @pytest.mark.parametrize("kind,epsilon,component", list(DEMO_PLOT_DIGESTS))
    def test_demo_report_plot_bytes(self, kind, epsilon, component):
        report = RunReport.from_json_file(DEMO_REPORT)
        csv_text = emit_plot_data(report, kind, epsilon=epsilon, component=component)
        assert _sha256(csv_text) == DEMO_PLOT_DIGESTS[kind, epsilon, component]

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
