"""Alternating parent/change benchmark pairs, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_9.json \
        [--pairs 10] [--seconds 10] [--seed N]

The checkout that holds this script, as it stands, is the change. The
parent is REV's tree, extracted with ``git archive`` into a temporary
directory (under ``TMPDIR``) and removed at the end. Standard library,
git and tar only.

For each workload in ``BENCHMARK.json``, pair i runs the benchmark
command (``--workload W --seconds S --trace 0``) once on each side,
parent first in even pairs and change first in odd ones. Every run's
metrics, ``failed`` and ``attempted`` are kept; each end-to-end metric
gets both sides' median, quartiles and IQR, the number of pairs the
change won (ties count for neither), its ``BENCHMARK.json`` bound, a
verdict against that bound, a share of the parent's median:

- ``worse``: the change's median is beyond the bound on the worse side;
- ``unresolved``: the parent's own IQR is wider than the bound, unless
  every run of the change beats every run of the parent;
- ``not worse``: otherwise;

and a ``claim``, the verdict on a gain claimed for that metric: ``met``
only when the change won at least nine pairs in ten and its median beats
the parent's by more than the parent's IQR, ``not met`` otherwise.

Then, for as many pairs, the change's ``configs/d32.cfg`` (16 cosine
and 16 sine components) runs on both sides in the same alternating
order, in fresh interpreters; the seconds of ``run_experiment`` alone are recorded, and
the two sides' ``report.json`` and ``assertions.csv`` are compared byte
for byte.

Last, for as many pairs, both sides run ``generate_samples`` for every
epsilon of the benchmark's ``rate_sweep`` config (as the change's
``perfbench/run.py`` writes it), at workers 1 and at workers 2, each in
a fresh interpreter, in the same alternating order. The record is CPU
microseconds per replication: ``time.process_time`` at workers 1, and
at workers 2 the user+sys time of the interpreter plus its joined pool
workers from ``resource.getrusage``. Unlike ``rate_sweep``'s
``run_s``, it leaves out time spent waiting for a core, and unlike
both ``run_s`` and ``cpu_s`` it leaves out the checks and the report.

Then, for as many pairs, both sides trace ``generate_samples`` with
``tracemalloc`` for every epsilon of the benchmark's ``long_paths``
config, at workers 1, each side in a fresh interpreter, in the same
alternating order. The record is each epsilon's peak of traced memory in
KiB: the block it returns plus the working memory of making it. Unlike
``peak_rss_mb``, it has no floor at the harness's own RSS.

Every run also records ``load1``, the host's one-minute load average
read just before it starts, and the environment names the CPU model
(``cpu_model``), so that a spread the host made can be told from a move
the change made.

The record is written whatever it shows. The tool then exits 1, naming
each fault on stderr, if the record shows a broken change: a workload
run that reports failed operations, or d32 bytes that differ between
the sides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
D32_CONFIG = Path("configs/d32.cfg")
OUTPUT_FILES = ("report.json", "assertions.csv")

# Runs in a fresh interpreter with the side's checkout as working directory.
TIME_RUN = """
import json, sys, time
from dataclasses import replace
sys.path.insert(0, "src")
from poisson_bm import load_config, run_experiment
config = replace(load_config(sys.argv[1]), output_dir=sys.argv[2])
t = time.perf_counter()
report = run_experiment(config)
seconds = time.perf_counter() - t
report.write(config.output_dir)
print(json.dumps({"run_experiment_s": seconds}))
"""

# Runs in a fresh interpreter with the side's checkout as working directory:
# CPU and wall microseconds per replication of generate_samples over every
# epsilon of a config, at a given worker count. The pool is joined before
# generate_samples returns, so RUSAGE_CHILDREN then holds its workers' time.
TIME_GENERATE = """
import json, resource, sys, time
from dataclasses import replace
sys.path.insert(0, "src")
from poisson_bm import EvaluationGrid, generate_samples, load_config
config = replace(load_config(sys.argv[1]), workers=int(sys.argv[2]))
grid = EvaluationGrid(config.horizon_T, config.grid_points)

def cpu():
    if config.workers <= 1:
        return time.process_time()
    return sum(u.ru_utime + u.ru_stime for u in
               map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))

c, t = cpu(), time.perf_counter()
for eps_index in range(len(config.epsilons)):
    generate_samples(config, grid, eps_index)
c, t = cpu() - c, time.perf_counter() - t
reps = config.replications_M * len(config.epsilons)
print(json.dumps({"cpu_us_per_rep": c / reps * 1e6, "wall_us_per_rep": t / reps * 1e6}))
"""
GENERATE_WORKLOAD = "rate_sweep"
GENERATE_WORKERS = (1, 2)

# Runs in a fresh interpreter with the side's checkout as working directory:
# the tracemalloc peak of generate_samples at each epsilon of a config, at
# workers 1, in KiB.
TRACE_MEMORY = """
import json, sys, tracemalloc
from dataclasses import replace
sys.path.insert(0, "src")
from poisson_bm import EvaluationGrid, generate_samples, load_config
config = replace(load_config(sys.argv[1]), workers=1)
grid = EvaluationGrid(config.horizon_T, config.grid_points)
peaks = {}
for eps_index, epsilon in enumerate(config.epsilons):
    tracemalloc.start()
    generate_samples(config, grid, eps_index)
    peaks[f"{epsilon:g}"] = tracemalloc.get_traced_memory()[1] / 1024
    tracemalloc.stop()
print(json.dumps(peaks))
"""
MEMORY_WORKLOAD = "long_paths"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def last_json_line(cmd: list[str], cwd: Path) -> dict:
    """The last stdout line of ``cmd`` as JSON, plus ``load1``: the host's
    one-minute load average read just before the run."""
    load1 = os.getloadavg()[0]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {cwd} exited {proc.returncode}:\n{proc.stderr}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "load1": load1}


def spread(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' spread and the pairs the change won."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p, c = spread(parent), spread(change)
    return {
        "better": better, "parent": p, "change": c, "change_wins": wins, "ties": ties,
        "pairs": len(parent), "median_change": c["median"] / p["median"] - 1.0,
    }


def verdict(result: dict, bound: float) -> str:
    """``compare``'s ``result`` judged against a bound; see the module docstring."""
    sign = -1.0 if result["better"] == "lower" else 1.0
    parent, change = result["parent"], result["change"]
    if sign * result["median_change"] < -bound:
        return "worse"
    if parent["iqr"] > bound * abs(parent["median"]) and not all(
            sign * (c - p) > 0 for c in change["runs"] for p in parent["runs"]):
        return "unresolved"
    return "not worse"


def claim_verdict(result: dict) -> str:
    """``compare``'s ``result`` judged as a claimed gain; see the module docstring."""
    sign = -1.0 if result["better"] == "lower" else 1.0
    gap = sign * (result["change"]["median"] - result["parent"]["median"])
    won = 10 * result["change_wins"] >= 9 * result["pairs"]
    return "met" if won and gap > result["parent"]["iqr"] else "not met"


def pair_order(i: int, sides: dict[str, Path]) -> list[tuple[str, Path]]:
    order = list(sides.items())
    return order if i % 2 == 0 else order[::-1]


def bench_workloads(sides: dict[str, Path], bench: dict, pairs: int, seconds: float,
                    seed: int | None) -> dict:
    out = {}
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        cmd = [*bench["command"], "--workload", workload, "--seconds", repr(seconds),
               "--trace", "0"] + ([] if seed is None else ["--seed", str(seed)])
        runs = []
        for i in range(pairs):
            for order, (side, root) in enumerate(pair_order(i, sides)):
                result = last_json_line(cmd, root)
                runs.append({"pair": i, "side": side, "order": order, "load1": result["load1"],
                             "failed": result["failed"], "attempted": result["attempted"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"{workload} pair {i} {side}: failed {result['failed']}, "
                      f"run_s {runs[-1]['metrics'].get('run_s')}", file=sys.stderr)
        by_side = {side: [r for r in runs if r["side"] == side] for side in sides}
        results = {}
        for name, metric in metrics.items():
            result = compare([r["metrics"][name] for r in by_side["parent"]],
                             [r["metrics"][name] for r in by_side["change"]], metric["better"])
            result["bound"] = metric["bound"]
            result["verdict"] = verdict(result, metric["bound"])
            result["claim"] = claim_verdict(result)
            results[name] = result
            print(f"{workload} {name}: median {result['median_change']:+.1%}, "
                  f"bound {metric['bound']:.0%}: {result['verdict']}, "
                  f"claim {result['claim']}", file=sys.stderr)
        out[workload] = {
            "command": cmd,
            "failed": {side: [r["failed"] for r in rs] for side, rs in by_side.items()},
            "metrics": results,
            "runs": runs,
        }
    return out


def bench_d32(sides: dict[str, Path], pairs: int, scratch: Path) -> dict:
    config = (ROOT / D32_CONFIG).resolve()
    seconds: dict[str, list[float]] = {side: [] for side in sides}
    loads: dict[str, list[float]] = {side: [] for side in sides}
    digests: dict[str, set] = {side: set() for side in sides}
    for i in range(pairs):
        for side, root in pair_order(i, sides):
            out_dir = scratch / f"d32-{side}"
            shutil.rmtree(out_dir, ignore_errors=True)
            result = last_json_line([sys.executable, "-c", TIME_RUN, str(config), str(out_dir)],
                                    root)
            seconds[side].append(result["run_experiment_s"])
            loads[side].append(result["load1"])
            digests[side].add(tuple(hashlib.sha256((out_dir / n).read_bytes()).hexdigest()
                                    for n in OUTPUT_FILES))
            print(f"d32 pair {i} {side}: {result['run_experiment_s']:.3f} s", file=sys.stderr)
    return {
        "config": D32_CONFIG.as_posix(),
        "run_experiment_s": compare(seconds["parent"], seconds["change"], "lower"),
        "load1": loads,
        "same_bytes": len(digests["parent"] | digests["change"]) == 1,
    }


def workload_config(workload: str, scratch: Path, seed: int | None) -> tuple[Path, int]:
    """The benchmark's config file for ``workload``, as the change's
    ``perfbench/run.py`` writes it, and its seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import DEFAULT_SEED, config_text

    seed = DEFAULT_SEED if seed is None else seed
    config = scratch / f"{workload}.cfg"
    config.write_text(config_text(workload, seed, scratch / f"{workload}-out"))
    return config, seed


def bench_generate(sides: dict[str, Path], pairs: int, scratch: Path,
                   seed: int | None) -> dict:
    config, seed = workload_config(GENERATE_WORKLOAD, scratch, seed)
    runs: dict[int, dict[str, list[dict]]] = {w: {side: [] for side in sides}
                                              for w in GENERATE_WORKERS}
    for i in range(pairs):
        for side, root in pair_order(i, sides):
            for workers in GENERATE_WORKERS:
                result = last_json_line([sys.executable, "-c", TIME_GENERATE, str(config),
                                         str(workers)], root)
                runs[workers][side].append(result)
                print(f"generate pair {i} {side} workers {workers}: "
                      f"{result['cpu_us_per_rep']:.2f} us cpu/rep", file=sys.stderr)
    out = {"workload": GENERATE_WORKLOAD, "seed": seed}
    for workers, by_side in runs.items():
        out[f"workers_{workers}"] = {
            name: compare([r[name] for r in by_side["parent"]],
                          [r[name] for r in by_side["change"]], "lower")
            for name in ("cpu_us_per_rep", "wall_us_per_rep")
        }
        out[f"workers_{workers}"]["load1"] = {side: [r["load1"] for r in rs]
                                              for side, rs in by_side.items()}
    return out


def bench_memory(sides: dict[str, Path], pairs: int, scratch: Path,
                 seed: int | None) -> dict:
    config, seed = workload_config(MEMORY_WORKLOAD, scratch, seed)
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    loads: dict[str, list[float]] = {side: [] for side in sides}
    for i in range(pairs):
        for side, root in pair_order(i, sides):
            peaks = last_json_line([sys.executable, "-c", TRACE_MEMORY, str(config)], root)
            loads[side].append(peaks.pop("load1"))
            runs[side].append(peaks)
            print(f"memory pair {i} {side}: {peaks} KiB", file=sys.stderr)
    return {
        "workload": MEMORY_WORKLOAD, "seed": seed, "workers": 1, "unit": "KiB",
        "load1": loads,
        "peak_kib": {eps: compare([r[eps] for r in runs["parent"]],
                                  [r[eps] for r in runs["change"]], "lower")
                     for eps in runs["parent"][0]},
    }


def broken(record: dict) -> list[str]:
    """The faults in ``record`` that show a broken change; see the module docstring."""
    faults = [f"{workload} pair {run['pair']} {run['side']}: failed {run['failed']}"
              for workload, result in record["workloads"].items()
              for run in result["runs"] if run["failed"] > 0]
    if not record["d32"]["same_bytes"]:
        faults.append(f"{record['d32']['config']}: the sides' output bytes differ")
    return faults


def environment() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
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
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the benchmark's own)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change = {"commit": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    tree = scratch / "parent"
    try:
        tree.mkdir()
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        sides = {"parent": tree, "change": ROOT}
        record = {
            "parent": {"commit": parent_commit},
            "change": change,
            "environment": environment(),
            "settings": {"pairs": args.pairs, "seconds": args.seconds,
                         "seed": "benchmark default" if args.seed is None else args.seed},
            "workloads": bench_workloads(sides, bench, args.pairs, args.seconds, args.seed),
            "d32": bench_d32(sides, args.pairs, scratch),
            "generate": bench_generate(sides, args.pairs, scratch, args.seed),
            "memory": bench_memory(sides, args.pairs, scratch, args.seed),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    faults = broken(record)
    for fault in faults:
        print(f"broken change: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
