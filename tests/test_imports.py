"""No stage of a run loads scipy, with or without a normality check, and
only a run that starts a pool loads multiprocessing.

Each case runs in a fresh interpreter, since this one has long since
imported whatever the other tests needed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# argv: config path, output dir, module. Prints, after each stage, whether
# the module is in sys.modules.
STAGES = """
import json, sys
from dataclasses import replace
from pathlib import Path

loaded = {}

def note(stage):
    loaded[stage] = sys.argv[3] in sys.modules

import poisson_bm
from poisson_bm import cli
note("import")
config = poisson_bm.load_config(sys.argv[1])
poisson_bm.validate_hypothesis_h(config.theta)
note("setup")
assert cli.main(["validate", sys.argv[1]]) == 0
note("validate")
for workers in (1, 2):
    out = Path(sys.argv[2]) / str(workers)
    run = replace(config, workers=workers, output_dir=out)
    poisson_bm.run_experiment(run).write(out)
    note(f"run_workers_{workers}")
assert cli.main(["plot", str(out / "report.json"), "--kind", "COV_HEATMAP",
                 "--out", str(out / "cov.csv")]) == 0
note("plot")
print(json.dumps(loaded))
"""

CONFIG = """\
cos_block = 1/2 pi
sin_block = 1/2 pi
epsilons = 0.4, 0.3, 0.2
replications_M = 200
grid_points = 4
master_seed = 7
checks = {checks}
"""


def _stages(tmp_path, checks, module="scipy"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(checks=checks), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", STAGES, str(cfg), str(tmp_path / "out"), module],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_runs_without_normality_never_load_scipy(tmp_path):
    loaded = _stages(tmp_path, "covariance, cross_moments, fourth_moment")
    assert loaded == {
        "import": False, "setup": False, "validate": False,
        "run_workers_1": False, "run_workers_2": False, "plot": False,
    }


@pytest.mark.parametrize("checks", ["covariance, normality", "default"])
def test_a_normality_check_never_loads_scipy(tmp_path, checks):
    # the KS distance takes the normal CDF from stats._ndtr, not scipy
    loaded = _stages(tmp_path, checks)
    assert loaded == {
        "import": False, "setup": False, "validate": False,
        "run_workers_1": False, "run_workers_2": False, "plot": False,
    }


def test_only_a_run_that_starts_a_pool_loads_multiprocessing(tmp_path):
    # at workers 2 a pool starts where there are two CPUs to run it
    pooled = (os.cpu_count() or 1) > 1
    loaded = _stages(tmp_path, "covariance", module="multiprocessing")
    assert loaded == {
        "import": False, "setup": False, "validate": False,
        "run_workers_1": False, "run_workers_2": pooled, "plot": pooled,
    }
