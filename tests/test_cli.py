"""Command-line interface: subcommands and exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import poisson_bm
import poisson_bm.runner as runner
from poisson_bm.cli import main

VALID_CFG = """
cos_block = 1/2 pi
epsilons = 0.2
replications_M = 100
master_seed = 4242
grid_points = 64
"""

INVALID_THETA_CFG = """
cos_block = 1/2 pi, 3/2 pi
epsilons = 0.2
replications_M = 100
master_seed = 4242
"""


def _without_covariance_data(doc):
    for block in doc["results"]:
        for check in block["checks"]:
            if check["name"] == "covariance":
                del check["data"]
    return doc


# broken copies of the demo report, each with the name its error must carry
NON_REPORTS = {
    "empty_object": (lambda doc: {}, ""),
    "no_results": (lambda doc: {**doc, "results": []}, ""),
    "empty_result": (lambda doc: {**doc, "results": [{}]}, "'checks'"),
    "no_covariance_data": (_without_covariance_data, "'data'"),
}


@pytest.fixture()
def cfg_file(tmp_path):
    def write(text, extra=""):
        p = tmp_path / "run.cfg"
        p.write_text(text + extra, encoding="utf-8")
        return p

    return write


class TestValidateCommand:
    def test_valid_config_exits_zero(self, cfg_file, capsys):
        assert main(["validate", str(cfg_file(VALID_CFG))]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True

    def test_invalid_theta_exits_two(self, cfg_file, capsys):
        assert main(["validate", str(cfg_file(INVALID_THETA_CFG))]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"][0]["rule"] == "SUM_2PI"

    def test_broken_config_exits_two(self, cfg_file):
        assert main(["validate", str(cfg_file("nonsense"))]) == 2

    def test_empty_check_list_exits_two(self, cfg_file, capsys):
        assert main(["validate", str(cfg_file(VALID_CFG, extra="checks =\n"))]) == 2
        assert "error: checks must be nonempty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,message",
        [
            ("checks = martingale\ngrid_points = 1\n", "martingale check needs"),
            ("checks = stroock\n", "stroock check needs"),
            ("checks = cross_moments\n", "cross_moments check needs"),
        ],
    )
    def test_check_needing_what_the_config_lacks_exits_two(
        self, cfg_file, capsys, extra, message
    ):
        text = VALID_CFG.replace("grid_points = 64\n", "")
        assert main(["validate", str(cfg_file(text, extra=extra))]) == 2
        assert message in capsys.readouterr().err

    def test_default_mixed_with_check_names_exits_two(self, cfg_file, capsys):
        cfg = cfg_file(VALID_CFG, extra="checks = default, stroock\n")
        assert main(["validate", str(cfg)]) == 2
        assert "default cannot be mixed with check names" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes,message",
        [
            ("replications_M = 1000000000000\ngrid_points = 16\n",
             "M = 1000000000000 replications, d = 2 components and G = 17 grid times"),
            ("replications_M = 100\ngrid_points = 1099511627776\n",
             "M = 100 replications, d = 2 components and G = 1099511627777 grid times"),
        ],
    )
    def test_sample_block_above_cap_exits_two(self, cfg_file, capsys, sizes, message):
        # refused at validation: a run would otherwise die allocating the block
        text = "cos_block = 1/2 pi\nsin_block = 1/2 pi\nepsilons = 0.2\nmaster_seed = 1\n"
        cfg = cfg_file(text, extra=sizes)
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            err = capsys.readouterr().err
            assert message in err and "above the cap" in err

    def test_a_grid_whose_times_can_tie_exits_two_before_any_sample(
        self, cfg_file, tmp_path, capsys, monkeypatch
    ):
        # it used to load with times 0, 0, 5e-324, sample its first epsilon,
        # then exit 2 with "need s < t" and no report
        def no_sample(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(runner, "derive_stream", no_sample)
        cfg = cfg_file(VALID_CFG.replace("grid_points = 64", "grid_points = 2"),
                       extra=f"horizon_T = 5e-324\noutput_dir = {tmp_path / 'out'}\n")
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            assert capsys.readouterr().err == (
                "error: the grid step horizon_T / steps = 5e-324 / 2 is below the smallest "
                "normal float 2.2250738585072014e-308, so grid times can tie\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("angle", [
        "7853981633974483/5000000000000000 pi",  # pi/2 to 16 digits: its levels overflowed int64
        "4611686018427387905/4611686018427387904 pi",  # 2q beyond int64
        f"{10**400} pi",  # beyond a float's range
        f"1/{10**400} pi",  # 0.0 rad, run only as a counterexample
    ])
    def test_angle_beyond_the_bounds_exits_two(self, cfg_file, tmp_path, capsys, angle):
        cfg = cfg_file(f"cos_block = {angle}\nsin_block = 1/2 pi\nepsilons = 0.2\n"
                       f"replications_M = 20\nmaster_seed = 1\nallow_invalid_theta = true\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            assert "q at most 1073741824, within a float's range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_refused_angle_is_named_with_its_position_and_reason(self, cfg_file, capsys):
        cfg = cfg_file("cos_block = 7853981633974483/5000000000000000 pi, 1/2 pi\n"
                       "epsilons = 0.2\nreplications_M = 20\nmaster_seed = 1\n")
        for command in ("validate", "run"):
            assert main([command, str(cfg)]) == 2
            err = capsys.readouterr().err
            assert ("line 1: cos_block: " in err and "; angle 1 of 2: angle "
                    "7853981633974483/5000000000000000 pi: the denominator of a rational "
                    "multiple of pi must be at most 1073741824" in err), err


class TestRunCommand:
    def test_run_writes_report(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(VALID_CFG, extra=f"output_dir = {tmp_path / 'out'}\n")
        code = main(["run", str(cfg)])
        out = capsys.readouterr().out
        assert (tmp_path / "out" / "report.json").exists()
        assert "covariance: pass" in out
        assert code in (0, 1)  # statistical verdict decides

    def test_refuses_invalid_theta(self, cfg_file, capsys):
        code = main(["run", str(cfg_file(INVALID_THETA_CFG))])
        assert code == 2
        err = capsys.readouterr().err
        assert "allow_invalid_theta" in err

    def test_counterexample_mode_runs_and_fails_statistically(
        self, cfg_file, tmp_path, capsys
    ):
        cfg = cfg_file(
            INVALID_THETA_CFG,
            extra=(
                f"output_dir = {tmp_path / 'out'}\n"
                "allow_invalid_theta = true\n"
                "checks = covariance\n"
                "grid_points = 8\n"
            ),
        )
        code = main(["run", str(cfg)])
        assert code == 1
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        cov = doc["results"][0]["checks"][0]
        assert cov["data"]["degenerate_pairs"][0]["correlation"] == pytest.approx(1.0)

    def test_zero_component_writes_report_and_exits_one(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(
            "cos_block = 1/2 pi\nsin_block = pi\nallow_invalid_theta = true\n"
            "epsilons = 0.2\nreplications_M = 200\ngrid_points = 4\nmaster_seed = 12345\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(cfg)]) == 1
        assert "SOME CHECKS FAILED" in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        reasons = [
            a["reason"]
            for c in doc["results"][0]["checks"]
            for a in c["assertions"]
            if "reason" in a
        ]
        assert len(reasons) == 4  # r4_spread[2], skew[2], kurt[2], ks[2]
        assert (tmp_path / "out" / "assertions.csv").exists()

    def test_failing_anchor_prints_its_line(self, cfg_file, tmp_path, capsys, monkeypatch):
        # every per-epsilon check and the sweep pass; only the anchor fails
        monkeypatch.setattr(runner, "ANCHOR_HALF_WIDTH", 0.0)
        cfg = cfg_file(
            "cos_block = 1/2 pi\nepsilons = 0.1, 0.05\nreplications_M = 400\n"
            "master_seed = 5\ngrid_points = 4\nchecks = fourth_moment\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(cfg)]) == 1
        lines = capsys.readouterr().out.splitlines()
        (failing,) = [line for line in lines if line.endswith("FAIL")]
        assert failing.startswith("fourth-moment anchor: epsilon=0.05 r4=")
        assert lines[-1] == "SOME CHECKS FAILED"

    def test_rational_angles_summing_past_a_float_write_a_report(
        self, cfg_file, tmp_path, capsys
    ):
        # 5e307 pi + 4e307 pi overflows a float; exactly it is 9e307 pi, 0 mod 2 pi
        cfg = cfg_file(
            f"cos_block = {5 * 10**307} pi, {4 * 10**307} pi\nallow_invalid_theta = true\n"
            "epsilons = 0.4, 0.3, 0.2\nreplications_M = 200\ngrid_points = 4\n"
            f"master_seed = 7\nchecks = cross_moments\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(cfg)]) in (0, 1)
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        bounds = [result["checks"][0]["data"]["pairs"][0]["bound_total"]
                  for result in doc["results"]]
        assert bounds == [None, None, None]  # the exact sum is degenerate

    def test_missing_config_exits_two(self):
        assert main(["run", "/does/not/exist.cfg"]) == 2


class TestPlotCommand:
    def test_plot_from_report(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(
            VALID_CFG,
            extra=f"output_dir = {tmp_path / 'out'}\nsin_block = 2.2\n",
        )
        main(["run", str(cfg)])
        capsys.readouterr()
        report = str(tmp_path / "out" / "report.json")

        out_csv = tmp_path / "cov.csv"
        assert main(["plot", report, "--kind", "COV_HEATMAP", "--out", str(out_csv)]) == 0
        assert out_csv.read_text().splitlines()[0] == "i,j,value,std_error"
        capsys.readouterr()

        assert main(["plot", report, "--kind", "MARGINAL_HIST", "--component", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 51

    def test_plot_missing_data_exits_two(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(
            VALID_CFG, extra=f"output_dir = {tmp_path / 'out'}\nchecks = covariance\n"
        )
        main(["run", str(cfg)])
        report = str(tmp_path / "out" / "report.json")
        # only one epsilon: no rate summary to plot
        assert main(["plot", report, "--kind", "RATE_LOGLOG"]) == 2

    @pytest.mark.parametrize("case", NON_REPORTS)
    def test_plot_of_a_non_report_exits_two(self, tmp_path, capsys, case):
        breaks, named = NON_REPORTS[case]
        demo = Path(__file__).parents[1] / "runs" / "demo" / "report.json"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(breaks(json.loads(demo.read_text()))), encoding="utf-8")
        assert main(["plot", str(path), "--kind", "COV_HEATMAP"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_rate_loglog_with_zero_cross_moment(self, cfg_file, tmp_path, capsys):
        # sin(pi * N) = 0, so the cross moment and its SE are exactly 0: no log
        cfg = cfg_file(
            "cos_block = 1/2 pi\nsin_block = pi\nallow_invalid_theta = true\n"
            "epsilons = 0.4, 0.2, 0.1\nreplications_M = 120\ngrid_points = 4\n"
            f"master_seed = 12345\nchecks = cross_moments\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(cfg)]) == 1
        capsys.readouterr()
        report = str(tmp_path / "out" / "report.json")
        assert main(["plot", report, "--kind", "RATE_LOGLOG"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 3
        for log_eps, log_abs, log_bound in rows:
            assert log_abs == ""
            assert float(log_eps) < 0.0 and float(log_bound) < 0.0


class TestVersionCommand:
    def test_version_in_process(self, capsys):
        assert main(["version"]) == 0
        assert "poisson-bm" in capsys.readouterr().out

    def test_console_script(self):
        # the child imports the package this suite imports, installed or not
        src = str(Path(poisson_bm.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "poisson_bm.cli", "version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "poisson-bm" in proc.stdout

    def test_project_version_is_the_package_version(self):
        # pyproject.toml reads its version from poisson_bm.version, without a build
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # [tool.setuptools] is "beta" to setuptools
            project = pyprojecttoml.read_configuration(pyproject)["project"]
        assert "version" in project["dynamic"]
        assert project["version"] == poisson_bm.__version__


class TestUsageErrors:
    def test_no_command_exits_two(self):
        assert main([]) == 2

    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2
