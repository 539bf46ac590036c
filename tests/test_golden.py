"""Golden bytes: configs/demo.cfg reproduces the committed runs/demo/ files."""

from dataclasses import replace
from pathlib import Path

from poisson_bm import load_config, run_experiment
from poisson_bm.report import ASSERTIONS_FILENAME, REPORT_FILENAME
from simd import other_bytes

ROOT = Path(__file__).resolve().parents[1]


def test_demo_reproduces_committed_run(tmp_path):
    config = replace(load_config(ROOT / "configs" / "demo.cfg"), output_dir=tmp_path)
    run_experiment(config).write(config.output_dir)
    for name in (REPORT_FILENAME, ASSERTIONS_FILENAME):
        assert (tmp_path / name).read_bytes() == (ROOT / "runs" / "demo" / name).read_bytes(), (
            other_bytes(name))
