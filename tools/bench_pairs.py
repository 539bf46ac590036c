"""Alternating parent/change benchmark pairs, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_9.json \
        [--pairs 10] [--seconds 10] [--seed N]

The checkout that holds this script, as it stands, is the change. The
parent is REV's tree, extracted with ``git archive`` into a temporary
directory (under ``TMPDIR``) and removed at the end. Standard library,
git and tar only.

Before any record, a pre-flight runs each embedded script below
(``TIME_RUN``, ``COLD_RUN``, ``TIME_GENERATE``, ``TRACE_MEMORY``) once on
each side against a tiny config in scratch space. The scripts are the
change's, so one that uses a name the parent's package lacks would fail
only on the parent's side; the tool then exits 1 within seconds, naming
the side and the script, and writes no record.

Every record is one ``alternate`` over the sides: pair i runs one
command once on each side, each in a fresh interpreter, parent first in
even pairs and change first in odd ones. Each record keeps its runs,
each ``{"pair", "side", "order", "load1", ...}`` plus what the command
printed; ``load1`` is the host's one-minute load average read just
before the run, and the environment names the CPU model (``cpu_model``),
so that a spread the host made can be told from a move the change made.
It also names numpy's AVX-512 dispatch state (``avx512_dispatch``), on
which the report bytes depend.

For each workload in ``BENCHMARK.json``, the command is the benchmark's
(``--workload W --seconds S --trace 0``), and each end-to-end metric
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

Then both sides run the change's ``configs/d32.cfg`` (16 cosine and 16
sine components): the seconds of ``run_experiment`` alone are recorded,
with the sha256 of the ``report.json`` and ``assertions.csv`` it wrote,
and ``same_bytes`` says whether every run gave the same two digests.

Then both sides run ``poisson-bm run configs/demo.cfg`` cold: each run
is ``cli.main(["run", ...])`` in a fresh interpreter, with its output
directory in scratch space. The record is wall seconds from before the
package import to the exit code, and the process's own peak RSS in MB,
``VmHWM`` from ``/proc/self/status``. Unlike ``peak_rss_mb``, which
reads ``ru_maxrss`` and so inherits the harness's high-water mark, it
holds the run's memory alone.

Then both sides run ``generate_samples`` for every epsilon of the
benchmark's ``rate_sweep`` config (as the change's ``perfbench/run.py``
writes it), at workers 1 for as many pairs and then at workers 2; the
pool is the one a run would start, ``runner._pool``'s (none where it
would have one process), and it serves every epsilon. The record is CPU
microseconds per replication: ``time.process_time`` at workers 1, and
at workers 2 the user+sys time of the interpreter plus its joined pool
workers from ``resource.getrusage``. Unlike ``rate_sweep``'s
``run_s``, it leaves out time spent waiting for a core, and unlike
both ``run_s`` and ``cpu_s`` it leaves out the checks and the report.

Last, both sides trace ``generate_samples`` with ``tracemalloc`` for
every epsilon of the benchmark's ``long_paths`` config, at workers 1.
The record is each epsilon's peak of traced memory in KiB: the block it
returns plus the working memory of making it. Unlike ``peak_rss_mb``,
it has no floor at the harness's own RSS.

The record is written whatever it shows. The tool then exits 1, naming
each fault on stderr, if the record shows a broken change: a workload
run that reports failed operations, or d32 bytes that differ between
the sides.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
D32_CONFIG = Path("configs/d32.cfg")
DEMO_CONFIG = Path("configs/demo.cfg")
OUTPUT_FILES = ("report.json", "assertions.csv")

# Runs in a fresh interpreter with the side's checkout as working directory:
# the seconds of run_experiment alone and the sha256 of each file it wrote.
TIME_RUN = f"""
import hashlib, json, sys, time
from dataclasses import replace
from pathlib import Path
sys.path.insert(0, "src")
from poisson_bm import load_config, run_experiment
config = replace(load_config(sys.argv[1]), output_dir=sys.argv[2])
t = time.perf_counter()
report = run_experiment(config)
seconds = time.perf_counter() - t
report.write(config.output_dir)
sha256 = [hashlib.sha256((Path(sys.argv[2]) / name).read_bytes()).hexdigest()
          for name in {OUTPUT_FILES!r}]
print(json.dumps({{"run_experiment_s": seconds, "sha256": sha256}}))
"""

# Runs in a fresh interpreter with the side's checkout as working directory:
# `poisson-bm run` on a config, writing into a given directory, with the
# wall seconds from before the package import and the process's own peak RSS.
COLD_RUN = """
import time
t = time.perf_counter()
import json, os, sys
sys.path.insert(0, "src")
from poisson_bm import cli
os.environ["POISSON_BM_OUTPUT_DIR"] = sys.argv[2]
code = cli.main(["run", sys.argv[1]])
seconds = time.perf_counter() - t
with open("/proc/self/status", encoding="ascii") as f:
    kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "wall_s": seconds, "vmhwm_mb": kib / 1024}))
"""

# Runs in a fresh interpreter with the side's checkout as working directory:
# CPU and wall microseconds per replication of generate_samples over every
# epsilon of a config, at a given worker count. The pool is the one a run
# would start (runner._pool: none where it would have one process), and it
# serves every epsilon; it is joined on leaving its block, so
# RUSAGE_CHILDREN then holds its workers' time.
TIME_GENERATE = """
import json, resource, sys, time
from dataclasses import replace
sys.path.insert(0, "src")
from poisson_bm import generate_samples, load_config
from poisson_bm.runner import _pool
config = replace(load_config(sys.argv[1]), workers=int(sys.argv[2]))
grid = config.grid

def cpu():
    if config.workers <= 1:
        return time.process_time()
    return sum(u.ru_utime + u.ru_stime for u in
               map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))

c, t = cpu(), time.perf_counter()
with _pool(config) as pool:
    for eps_index in range(len(config.epsilons)):
        generate_samples(config, grid, eps_index, pool)
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
from poisson_bm import generate_samples, load_config
config = replace(load_config(sys.argv[1]), workers=1)
grid = config.grid
peaks = {}
for eps_index, epsilon in enumerate(config.epsilons):
    tracemalloc.start()
    generate_samples(config, grid, eps_index)
    peaks[f"{epsilon:g}"] = tracemalloc.get_traced_memory()[1] / 1024
    tracemalloc.stop()
print(json.dumps(peaks))
"""
MEMORY_WORKLOAD = "long_paths"

# Runs in a fresh interpreter: numpy's version and its AVX-512 dispatch
# targets, each true where numpy dispatches it in that process (null where
# numpy does not say). The report bytes depend on them (ROADMAP finding 1).
NUMPY_INFO = """
import json, numpy
try:
    from numpy._core import _multiarray_umath as umath
    avx512 = {t: bool(umath.__cpu_features__.get(t)) for t in umath.__cpu_dispatch__
              if t == "X86_V4" or t.startswith("AVX512")}
except (ImportError, AttributeError):
    avx512 = None
print(json.dumps({"numpy": numpy.__version__, "avx512_dispatch": avx512}))
"""


# The pre-flight's config: two epsilons and enough replications for every
# default check, in well under a second per script.
PREFLIGHT_CONFIG = """
cos_block = 1/2 pi
sin_block = 1/2 pi
epsilons = 0.4, 0.2
replications_M = 120
grid_points = 4
master_seed = 12345
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(commit: str, tree: Path) -> None:
    """``commit``'s files, from ``git archive``, in the new directory ``tree``."""
    tree.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def last_json_line(cmd: list[str], cwd: Path) -> dict:
    """The last stdout line of ``cmd`` as JSON, plus ``load1``: the host's
    one-minute load average read just before the run."""
    load1 = os.getloadavg()[0]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {cwd} exited {proc.returncode}:\n{proc.stderr}")
    return {"load1": load1, **json.loads(proc.stdout.strip().splitlines()[-1])}


def preflight(sides: dict[str, Path], scratch: Path) -> list[str]:
    """Each embedded script run once in each side's checkout against
    ``PREFLIGHT_CONFIG``: one line per failed run, naming the side and
    the script, with the last line the script wrote to stderr."""
    config = scratch / "preflight.cfg"
    config.write_text(PREFLIGHT_CONFIG)
    out = str(scratch / "preflight-out")
    scripts = {"TIME_RUN": (TIME_RUN, out), "COLD_RUN": (COLD_RUN, out),
               "TIME_GENERATE": (TIME_GENERATE, str(max(GENERATE_WORKERS))),
               "TRACE_MEMORY": (TRACE_MEMORY,)}
    faults = []
    for side, root in sides.items():
        for name, (script, *args) in scripts.items():
            proc = subprocess.run([sys.executable, "-c", script, str(config), *args],
                                  cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                last = (proc.stderr.strip().splitlines() or [""])[-1]
                faults.append(f"{side} tree {root}: {name} exited {proc.returncode}: {last}")
    return faults


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


def alternate(sides: dict[str, Path], pairs: int, label: str, cmd: list[str]) -> list[dict]:
    """``cmd`` run in each side's checkout once per pair, in ``pair_order``:
    one ``{"pair", "side", "order", "load1", **result}`` per run, where
    ``result`` is the JSON of the run's last stdout line."""
    runs = []
    for i in range(pairs):
        for order, (side, root) in enumerate(pair_order(i, sides)):
            runs.append({"pair": i, "side": side, "order": order, **last_json_line(cmd, root)})
            print(f"{label} pair {i} {side}: {json.dumps(runs[-1])}", file=sys.stderr)
    return runs


def split(runs: list[dict], value: Callable[[dict], float]) -> tuple[list[float], list[float]]:
    """``value`` of the parent's runs and of the change's, each in pair order."""
    return ([value(r) for r in runs if r["side"] == "parent"],
            [value(r) for r in runs if r["side"] == "change"])


def bench_workloads(sides: dict[str, Path], bench: dict, pairs: int, seconds: float,
                    seed: int | None) -> dict:
    out = {}
    for workload in (w["name"] for w in bench["workloads"]):
        cmd = [*bench["command"], "--workload", workload, "--seconds", repr(seconds),
               "--trace", "0"] + ([] if seed is None else ["--seed", str(seed)])
        runs = alternate(sides, pairs, workload, cmd)
        results = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            result = compare(*split(runs, lambda r: r["metrics"][name]["value"]),
                             metric["better"])
            result.update(bound=bound, verdict=verdict(result, bound),
                          claim=claim_verdict(result))
            results[name] = result
            print(f"{workload} {name}: median {result['median_change']:+.1%}, "
                  f"bound {bound:.0%}: {result['verdict']}, claim {result['claim']}",
                  file=sys.stderr)
        out[workload] = {"command": cmd, "metrics": results, "runs": runs}
    return out


def bench_d32(sides: dict[str, Path], pairs: int, scratch: Path) -> dict:
    cmd = [sys.executable, "-c", TIME_RUN, str(ROOT / D32_CONFIG), str(scratch / "d32")]
    runs = alternate(sides, pairs, "d32", cmd)
    return {
        "config": D32_CONFIG.as_posix(),
        "run_experiment_s": compare(*split(runs, lambda r: r["run_experiment_s"]), "lower"),
        "same_bytes": len({tuple(r["sha256"]) for r in runs}) == 1,
        "runs": runs,
    }


def bench_cold_run(sides: dict[str, Path], pairs: int, scratch: Path) -> dict:
    cmd = [sys.executable, "-c", COLD_RUN, str(ROOT / DEMO_CONFIG), str(scratch / "cold")]
    runs = alternate(sides, pairs, "cold run", cmd)
    return {
        "config": DEMO_CONFIG.as_posix(),
        **{name: compare(*split(runs, lambda r: r[name]), "lower")
           for name in ("wall_s", "vmhwm_mb")},
        "runs": runs,
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
    out = {"workload": GENERATE_WORKLOAD, "seed": seed}
    for workers in GENERATE_WORKERS:
        runs = alternate(sides, pairs, f"generate workers {workers}",
                         [sys.executable, "-c", TIME_GENERATE, str(config), str(workers)])
        out[f"workers_{workers}"] = {
            **{name: compare(*split(runs, lambda r: r[name]), "lower")
               for name in ("cpu_us_per_rep", "wall_us_per_rep")},
            "runs": runs,
        }
    return out


def bench_memory(sides: dict[str, Path], pairs: int, scratch: Path,
                 seed: int | None) -> dict:
    config, seed = workload_config(MEMORY_WORKLOAD, scratch, seed)
    runs = alternate(sides, pairs, "memory", [sys.executable, "-c", TRACE_MEMORY, str(config)])
    epsilons = [key for key in runs[0] if key not in ("pair", "side", "order", "load1")]
    return {
        "workload": MEMORY_WORKLOAD, "seed": seed, "workers": 1, "unit": "KiB",
        "peak_kib": {eps: compare(*split(runs, lambda r: r[eps]), "lower") for eps in epsilons},
        "runs": runs,
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
    numpy = json.loads(subprocess.run([sys.executable, "-c", NUMPY_INFO], capture_output=True,
                                      text=True, check=True).stdout)
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
        **numpy,
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
        extract(parent_commit, tree)
        sides = {"parent": tree, "change": ROOT}
        faults = preflight(sides, scratch)
        for fault in faults:
            print(f"pre-flight: {fault}", file=sys.stderr)
        if faults:
            return 1
        record = {
            "parent": {"commit": parent_commit},
            "change": change,
            "environment": environment(),
            "settings": {"pairs": args.pairs, "seconds": args.seconds,
                         "seed": "benchmark default" if args.seed is None else args.seed},
            "workloads": bench_workloads(sides, bench, args.pairs, args.seconds, args.seed),
            "d32": bench_d32(sides, args.pairs, scratch),
            "cold_run": bench_cold_run(sides, args.pairs, scratch),
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
