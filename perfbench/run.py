"""poisson-bm benchmark: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. In order, one invocation

1. runs ``configs/demo.cfg`` and byte-compares its ``report.json`` and
   ``assertions.csv`` with the committed ``runs/demo/`` files, exiting 1
   before any timing on a mismatch;
2. writes the workload's config file, with ``master_seed = N``;
3. times ``setup_s`` in fresh interpreters;
4. starts one process that runs only this workload, through the user
   path ``load_config`` -> ``run_experiment`` -> ``RunReport.write``,
   again and again for S seconds (``child.py``);
5. checks every repetition's output bytes against the workload's
   workers = 1 reference, prints the metrics by name and unit on stderr
   with an environment block, saves them under ``.perfbench_out/``, and
   prints one JSON result as the last line of stdout.

A run that raised or whose bytes differ from the reference is a failed
operation. A written report whose checks fail (exit 1 from the command
line) is a statistical outcome and not a failure; README.md lists the
outcomes at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from child import OUTPUT_FILES, output_digests, use_checkout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")
RESULTS = Path(".perfbench_out")
REFERENCES = HERE / "references.json"

DEMO_CONFIG = Path("configs/demo.cfg")
DEMO_GOLDEN = Path("runs/demo")
ENV_OVERRIDES = ("POISSON_BM_OUTPUT_DIR", "POISSON_BM_WORKERS")

DEFAULT_SEED = 12345
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170.0

# All workloads: T = 1, d = 4. README.md gives the reason for each.
_COMMON = "horizon_T = 1\nmaster_seed = {seed}\noutput_dir = {output_dir}\n"
WORKLOADS = {
    "long_paths": _COMMON + (
        "cos_block = pi, 2.2\n"
        "sin_block = 1/2 pi, 1.1\n"
        "allow_pi_in_cos = true\n"
        "epsilons = 0.02, 0.01\n"
        "replications_M = 1000\n"
        "grid_points = 16\n"
        "workers = 1\n"
    ),
    "fine_grid": _COMMON + (
        "cos_block = 1/2 pi, 2.2\n"
        "sin_block = 1/2 pi, 1.1\n"
        "epsilons = 0.2, 0.1\n"
        "replications_M = 2000\n"
        "grid_points = 64\n"
        "workers = 1\n"
    ),
    "rate_sweep": _COMMON + (
        "cos_block = 1/2 pi, 2.2\n"
        "sin_block = 1/2 pi, 2.2\n"
        "epsilons = 0.4, 0.3, 0.2, 0.15, 0.1\n"
        "replications_M = 6000\n"
        "grid_points = 1\n"
        "checks = covariance, cross_moments, fourth_moment\n"
        "workers = 2\n"
    ),
}

END_TO_END_UNITS = {
    "run_s": "s", "cpu_s": "s", "reps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result; reported with exit code 1."""


def config_text(workload: str, seed: int, output_dir: Path) -> str:
    return WORKLOADS[workload].format(seed=seed, output_dir=output_dir.as_posix())


def serial_digests(config_path: Path) -> dict[str, str]:
    """Output digests of a workers = 1 run of a config file, in this process."""
    from dataclasses import replace

    from poisson_bm import load_config, run_experiment

    config = replace(load_config(config_path), workers=1)
    run_experiment(config).write(config.output_dir)
    return output_digests(config.output_dir)


def golden_gate(work: Path) -> None:
    """Run the demo config and require the committed bytes."""
    from dataclasses import replace

    from poisson_bm import load_config, run_experiment

    out = work / "demo"
    config = replace(load_config(DEMO_CONFIG), output_dir=out)
    run_experiment(config).write(out)
    for name in OUTPUT_FILES:
        if (out / name).read_bytes() != (DEMO_GOLDEN / name).read_bytes():
            raise BenchError(f"golden bytes differ: {DEMO_CONFIG} no longer reproduces "
                             f"{DEMO_GOLDEN / name}")


def run_child(args: list[str], timeout: float) -> str:
    """Run child.py to completion in its own process group; return stdout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # also the pool workers it started
        proc.communicate()
        raise BenchError(f"child {args[0]} timed out after {timeout:.0f} s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # leftovers of a crashed child, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{err}")
    return out


def time_setup(config_path: Path) -> dict[str, float]:
    """Medians over fresh interpreters of import, load_config and validation."""
    probes = [json.loads(run_child(["setup", str(ROOT), str(config_path)], 60.0))
              for _ in range(SETUP_PROBES)]
    med = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
    med["setup_s"] = statistics.median(sum(p.values()) for p in probes)
    return med


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def score(reps: list[dict], reference: dict[str, str] | None) -> int:
    """Failed repetitions: raised, or bytes differ from the reference."""
    if reference is None:  # serial workload, seed without a recorded reference
        reference = next((r["digests"] for r in reps if r["error"] is None), None)
    return sum(r["error"] is not None or r["digests"] != reference for r in reps)


def end_to_end(result: dict, setup: dict) -> dict[str, float]:
    walls = [r["wall_s"] for r in result["repetitions"]]
    return {
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in result["repetitions"]),
        "reps_per_s": statistics.median(result["replications_per_run"] / w for w in walls),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, setup: dict) -> dict[str, float]:
    reps = result["repetitions"]
    traced = [r for r in reps if r["traced"] and r["error"] is None]
    if not traced:
        raise BenchError("no traced repetition completed")
    # median_low: each figure is one traced repetition's, counts stay whole
    layers = {k: statistics.median_low(r["layers"][k] for r in traced)
              for k in traced[0]["layers"]}
    untraced_s = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    return {
        "setup.import_s": setup["import_s"],
        "runconfig.load_s": setup["load_s"],
        "angles.validate_s": setup["validate_s"],
        **layers,
        "trace.overhead_s": statistics.median(r["wall_s"] for r in traced) - untraced_s,
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if "_us_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.startswith(("poisson.ns_", "process.build_ns_")):
        return "ns"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_efficiency", "_over_expected")):
        return "ratio"
    return "count"


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    missing = [p for p in (Path("src/poisson_bm/__init__.py"), DEMO_CONFIG,
                           *(DEMO_GOLDEN / n for n in OUTPUT_FILES)) if not p.is_file()]
    if missing:
        raise BenchError("not a poisson-bm checkout; missing "
                         + ", ".join(str(p) for p in missing))
    for key in ENV_OVERRIDES:  # the program sees only the generated config
        os.environ.pop(key, None)
    use_checkout(ROOT)
    from poisson_bm import load_config

    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        golden_gate(work)

        config_path = work / f"{workload}.cfg"
        config_path.write_text(config_text(workload, seed, work / "out"), encoding="utf-8")
        reference = json.loads(REFERENCES.read_text()).get(workload, {}).get(str(seed))
        if reference is None and load_config(config_path).workers > 1:
            ref_path = work / "reference.cfg"
            ref_path.write_text(config_text(workload, seed, work / "reference"))
            reference = serial_digests(ref_path)

        setup = time_setup(config_path)
        result_path, spans_path = work / "result.json", work / "spans.json"
        run_child(["workload", str(ROOT), str(config_path), repr(seconds),
                   "1" if trace else "0", str(result_path), str(spans_path)],
                  CHILD_TIMEOUT_S)
        result = json.loads(result_path.read_text())

        failed = score(result["repetitions"], reference)
        attempted = len(result["repetitions"])
        metrics = per_layer(result, setup) if trace else end_to_end(result, setup)
        env = environment(seed)

        RESULTS.mkdir(exist_ok=True)
        stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
        stem.with_suffix(".json").write_text(json.dumps({
            "workload": workload, "environment": env, "metrics": metrics,
            "attempted": attempted, "failed": failed, "reference": reference,
            "setup_probes_median": setup, "repetitions": result["repetitions"],
        }, indent=1))
        if trace:  # tens of MB on rate_sweep: keep the latest per workload only
            shutil.move(spans_path, RESULTS / f"{workload}-spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    log = [f"# environment: {json.dumps(env)}",
           f"# {workload}: {attempted} runs, {'traced' if trace else 'timed'}"]
    log += [f"{name} = {value!r} {unit_of(name)}" for name, value in metrics.items()]
    log.append(f"failed_share = {failed / attempted!r} share")
    outcomes = sorted({r["all_pass"] for r in result["repetitions"] if r["error"] is None})
    log.append(f"# checks: {' / '.join('all pass' if o else 'some fail (exit 1)' for o in outcomes)}"
               " -- a statistical outcome, not a failed run")
    print("\n".join(log), file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
