"""Config-space robustness: random config files end in a written report
(exit 0 or 1) or a clean configuration error (exit 2), never a traceback,
and every written report.json is strict JSON. A config that loads and is
admissible ends in a report: ``run_experiment`` returns for it with one
report.json text and one assertions.csv text at workers 1, 2 and 64,
and the CLI exits 0 or 1. Horizons are drawn from a uniform range and from
extremes down to the smallest float. A second draw takes extreme
rational angles: p/q pi with p and q of up to 400 digits, and q either
side of 2**30, the largest denominator an angle may have."""

import json
import random
from dataclasses import replace

from poisson_bm.cli import main
from poisson_bm.report import REPORT_FILENAME
from poisson_bm.runconfig import ConfigError, load_config
from poisson_bm.runner import CHECKS, run_experiment

CONFIGS = 40

# each admissible config runs at every count: serial, a pool, and a count
# above the CPUs of most hosts
WORKER_COUNTS = (1, 2, 64)

# horizons whose grid steps reach the smallest floats, beside the uniform range
EXTREME_HORIZONS = (5e-324, 1e-323, 1.5e-323, 1e-300, 1e-200)


def _angle(rng: random.Random) -> str:
    kind = rng.choice(["p/q pi", "pi", "0", "2 pi", "decimal"])
    if kind == "p/q pi":
        return f"{rng.randint(1, 8)}/{rng.randint(1, 6)} pi"
    if kind == "decimal":
        return repr(round(rng.uniform(-7.0, 7.0), 4))
    return kind


def _up_to_400_digits(rng: random.Random) -> int:
    return rng.randint(1, 10 ** rng.randint(1, 400))


def _extreme_angle(rng: random.Random) -> str:
    if rng.random() < 0.5:  # an ordinary angle beside the extreme ones
        return _angle(rng)
    q = rng.choice([_up_to_400_digits(rng), 2**30 - 1, 2**30, 2**30 + 1, rng.randint(1, 6)])
    p = _up_to_400_digits(rng) if rng.random() < 0.5 else rng.randint(1, 2 * q - 1)
    return f"{p}/{q} pi"


def _horizon(rng: random.Random) -> float:
    if rng.random() < 0.25:
        return rng.choice(EXTREME_HORIZONS)
    return round(rng.uniform(1e-3, 7.25), 4)


def _config_text(rng: random.Random, output_dir, angle=_angle) -> str:
    epsilons = sorted(rng.sample(range(15, 101), rng.randint(1, 4)), reverse=True)
    checks = rng.sample([*CHECKS, "default"], rng.randint(1, 3))
    return "\n".join([
        f"cos_block = {', '.join(angle(rng) for _ in range(rng.randint(0, 4)))}",
        f"sin_block = {', '.join(angle(rng) for _ in range(rng.randint(0, 4)))}",
        f"allow_pi_in_cos = {rng.choice(['true', 'false'])}",
        f"allow_invalid_theta = {rng.choice(['true', 'false'])}",
        f"horizon_T = {_horizon(rng)!r}",
        f"grid_points = {rng.randint(1, 12)}",
        f"replications_M = {rng.randint(1, 150)}",
        f"epsilons = {', '.join(str(e / 100) for e in epsilons)}",
        f"checks = {', '.join(checks)}",
        f"master_seed = {rng.randrange(2**64)}",
        f"output_dir = {output_dir}",
    ]) + "\n"


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def _loaded(path):
    """The config at ``path`` if it loads and is admissible, else None."""
    try:
        config = load_config(path)
        config.admissibility()
    except ConfigError:
        return None
    return config


def _exit_codes(tmp_path, seed: int, angle) -> list[int]:
    """Run CONFIGS random configs; check each ends cleanly and return the codes."""
    rng = random.Random(seed)
    codes = []
    for k in range(CONFIGS):
        out = tmp_path / f"run{k}"
        path = tmp_path / f"run{k}.cfg"
        path.write_text(_config_text(rng, out, angle), encoding="utf-8")
        config = _loaded(path)
        if config is not None:
            # the CLI maps any ValueError to exit 2, so a run that fails after
            # its config loaded would otherwise pass as a configuration error;
            # and the worker count moves no byte of either file
            outputs = {(report.to_json_text(), report.assertions_csv_text())
                       for report in (run_experiment(replace(config, workers=workers))
                                      for workers in WORKER_COUNTS)}
            assert len(outputs) == 1, path.read_text()
        code = main(["run", str(path)])
        assert code in ((0, 1) if config is not None else (2,)), (code, path.read_text())
        if (out / REPORT_FILENAME).exists():
            assert code in (0, 1)
            json.loads((out / REPORT_FILENAME).read_text(), parse_constant=_refuse)
        codes.append(code)
    return codes


def test_random_configs_end_cleanly(tmp_path):
    codes = _exit_codes(tmp_path, 20261020, _angle)
    # the draw reaches both ends: written reports and configuration errors
    assert 2 in codes and {0, 1} & set(codes)


def test_extreme_rational_angles_end_cleanly(tmp_path):
    codes = _exit_codes(tmp_path, 20261021, _extreme_angle)
    assert 2 in codes and {0, 1} & set(codes)
