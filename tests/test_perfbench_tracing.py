"""The benchmark's traced run still works on the library as it stands.

``perfbench/tracing.py`` wraps names that ``run_experiment`` looks up in
``poisson_bm.runner`` at call time. A refactor that drops or renames one
of them breaks ``perfbench/run.py --trace 1``; this test runs the tracer
unchanged, loaded straight from its file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from poisson_bm import RunConfig, ThetaConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("runner.", "process.", "poisson.", "rng.", "stats.")
OUTPUT_FILES = ("report.json", "assertions.csv")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _per_layer_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer"] if m["name"].startswith(LAYERS)]


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_run_has_every_layer_metric_and_the_same_bytes(tmp_path, workers):
    M, steps = 200, 4
    config = RunConfig(
        theta=ThetaConfig(cos_block=["pi"], sin_block=["1/2 pi"], allow_pi_in_cos=True),
        epsilons=(0.4, 0.2),
        replications_M=M,
        master_seed=31,
        grid_points=steps,
        workers=workers,
    )
    run_experiment(config).write(tmp_path / "plain")
    ship_dir = tmp_path / "ship"
    ship_dir.mkdir()
    tracer = tracing.Tracer(ship_dir)
    with tracing.instrumented(tracer):
        run_experiment(config).write(tmp_path / "traced")
    spans, counts = tracer.take()
    metrics = tracing.layer_metrics(
        spans, counts, workers=workers, block_floats=M * 2 * (steps + 1)
    )

    for name in OUTPUT_FILES:
        assert (tmp_path / "traced" / name).read_bytes() == (
            tmp_path / "plain" / name
        ).read_bytes()
    missing = [name for name in _per_layer_names() if name not in metrics]
    assert not missing
    # every wrapped name was reached, in the pool workers too
    assert metrics["rng.calls"] == metrics["process.build_n"] == 2 * M
    for check in config.resolved_checks:
        assert metrics[f"stats.{check}_calls"] > 0, check
