"""Alternating parent/change benchmark pairs, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_9.json \
        [--pairs 10] [--seconds 10] [--seed N]

The checkout that holds this script, as it stands, is the change. The
parent is REV's tree, extracted with ``git archive`` into a temporary
directory (under ``TMPDIR``) and removed at the end. Standard library,
git and tar only.

Both trees' packages are loaded side by side in this interpreter: each
tree's ``src/poisson_bm`` is imported under its own name
(``parent_poisson_bm``, ``change_poisson_bm``), and every module of each
is checked to come from its own tree. Before any record, a pre-flight
calls each library record's measurement (below) once on each side, with
a tiny config in scratch space in place of its own, which also warms
both sides before the first timed pair. The measurements are the
change's, so one that uses a name the parent's package lacks fails only
on the parent's side; the tool then exits 1 within seconds, naming the
side and each failing record, and writes no record.

Every record but ``memory`` is one ``alternate`` over the sides: pair i
runs once on each side, parent first in even pairs and change first in
odd ones, and the record keeps its runs, each ``{"pair", "side",
"order", ...}`` plus what the run gave.

The workload and ``cold_run`` records run a command in a fresh
interpreter, in the side's checkout. Each run also keeps ``load1``, the
host's one-minute load average read just before it, and the environment
names the CPU model (``cpu_model``), so that a spread the host made can
be told from a move the change made. It also names numpy's AVX-512
dispatch state (``avx512_dispatch``), on which the report bytes depend.

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

``cold_run``: both sides run ``poisson-bm run configs/demo.cfg`` cold;
each run is ``cli.main(["run", ...])`` in a fresh interpreter, with its
output directory in scratch space. The record is the spread of wall
seconds from before the package import to the exit code (``wall_s``),
and of the process's own peak RSS in MB (``vmhwm_mb``), ``VmHWM`` from
``/proc/self/status``. Unlike ``peak_rss_mb``, which reads
``ru_maxrss`` and so inherits the harness's high-water mark, it holds
the run's memory alone.

The library records (``d32``, ``generate``, ``memory``) run in this
interpreter, on the loaded packages, after every fresh interpreter has
run: a process this one starts begins its ``ru_maxrss`` at this one's
peak RSS, which the pre-flight keeps below ``perfbench/run.py``'s own.
Each timed library record gets
``cpu_ratio``: each pair's change ``cpu_s`` over the parent's, where
``cpu_s`` is the ``time.process_time`` seconds of the call (``ratios``),
their ``median``, and ``ci95``, a 95 % bootstrap interval of that median
(``BOOTSTRAP_RESAMPLES`` resamples from a fixed seed). A ratio below 1 is
less CPU on the change's side. The record shows a gain only when the
whole interval lies below 1, and a loss only when it lies wholly above 1;
a few percent is within its reach where fresh interpreters on one host
are not.

- ``generate``: ``generate_samples`` at workers 1 on the benchmark's
  ``rate_sweep`` config (as the change's ``perfbench/run.py`` writes
  it), one epsilon per pair in turn, ``LIBRARY_PAIRS`` pairs; each run
  names its ``epsilon``. Unlike ``rate_sweep``'s ``run_s`` and
  ``cpu_s``, it leaves out the pool, the checks and the report.
- ``d32``: ``run_experiment`` at workers 1 on the change's
  ``configs/d32.cfg`` (16 cosine and 16 sine components),
  ``LIBRARY_PAIRS`` pairs; each run keeps the ``sha256`` of the
  ``report.json`` and ``assertions.csv`` it wrote, and ``same_bytes``
  says whether every run gave the same two digests.
- ``memory``: each side's ``tracemalloc`` peak, in KiB, of
  ``generate_samples`` at workers 1 for each epsilon of the benchmark's
  ``long_paths`` config (``peak_kib``, by side and epsilon): the block
  it returns plus the working memory of making it. It does not vary from
  run to run, so it is taken once per side. Unlike ``peak_rss_mb``, it
  has no floor at the harness's own RSS.

The record is written whatever it shows. The tool then exits 1, naming
each fault on stderr, if the record shows a broken change: a workload
run that reports failed operations, or d32 bytes that differ between
the sides.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import ModuleType
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
OUTPUT_FILES = ("report.json", "assertions.csv")
LIBRARY_PAIRS = {"d32": 10, "generate": 40}
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0

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
# default check, in well under a second per measurement.
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


def load_tree(root: Path, alias: str) -> ModuleType:
    """``root``'s ``src/poisson_bm`` imported as the package ``alias``, in
    place of any earlier package of that name. The package imports itself
    only relatively, so its modules are ``alias``'s submodules; each must
    come from ``root``, else ``ImportError``."""
    home = (root / "src" / "poisson_bm").resolve()
    for name in [name for name in sys.modules if name.partition(".")[0] == alias]:
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location(alias, home / "__init__.py",
                                                  submodule_search_locations=[str(home)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    for name, module in sys.modules.items():
        if name.partition(".")[0] == alias and home not in Path(module.__file__).resolve().parents:
            raise ImportError(f"{name} imported from {module.__file__}, not from {home}")
    return package


def run_cpu(package: ModuleType, config: Path, out: Path) -> dict:
    """``cpu_s``, the CPU seconds of ``package``'s ``run_experiment`` at
    workers 1 on ``config`` (a path in the change's checkout, or an absolute
    one), and the ``sha256`` of each file its report wrote into ``out``."""
    run = replace(package.load_config(ROOT / config), output_dir=str(out), workers=1)
    start = time.process_time()
    report = package.run_experiment(run)
    seconds = time.process_time() - start
    report.write(run.output_dir)
    return {"cpu_s": seconds, "sha256": [hashlib.sha256((out / name).read_bytes()).hexdigest()
                                         for name in OUTPUT_FILES]}


def generate_cpu(package: ModuleType, config: Path, i: int) -> dict:
    """``cpu_s``, the CPU seconds of ``package``'s ``generate_samples`` at
    workers 1 on ``epsilon`` number i (mod their count) of ``config``."""
    run = replace(package.load_config(config), workers=1)
    eps_index = i % len(run.epsilons)
    start = time.process_time()
    package.generate_samples(run, run.grid, eps_index)
    return {"cpu_s": time.process_time() - start, "epsilon": run.epsilons[eps_index]}


def peak_kib(package: ModuleType, config: Path) -> dict[str, float]:
    """The tracemalloc peak of ``package``'s ``generate_samples`` at workers 1
    for each epsilon of ``config``, in KiB."""
    run = replace(package.load_config(config), workers=1)
    peaks = {}
    for eps_index, epsilon in enumerate(run.epsilons):
        tracemalloc.start()
        try:
            package.generate_samples(run, run.grid, eps_index)
            peaks[f"{epsilon:g}"] = tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()
    return peaks


def preflight(packages: dict[str, ModuleType], sides: dict[str, Path], scratch: Path) -> list[str]:
    """Each library record's measurement called once on each side's package
    with ``PREFLIGHT_CONFIG`` for its config: one line per failed call,
    naming the side and the record, each also printed on stderr."""
    config = scratch / "preflight.cfg"
    config.write_text(PREFLIGHT_CONFIG)
    faults = []
    for side, package in packages.items():
        for label, measure, *args in (("d32", run_cpu, scratch / "preflight-out"),
                                      ("generate", generate_cpu, 0), ("memory", peak_kib)):
            try:
                measure(package, config, *args)
            except Exception as exc:  # the tree under test is at fault: report it, go on
                faults.append(f"{side} tree {sides[side]}: {label} raised {exc!r}")
                print(f"pre-flight: {faults[-1]}", file=sys.stderr)
    return faults


def last_json_line(cmd: list[str], cwd: Path) -> dict:
    """The last stdout line of ``cmd`` as JSON, plus ``load1``: the host's
    one-minute load average read just before the run."""
    load1 = os.getloadavg()[0]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {cwd} exited {proc.returncode}:\n{proc.stderr}")
    return {"load1": load1, **json.loads(proc.stdout.strip().splitlines()[-1])}


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


def pair_order(i: int, sides: dict) -> list[tuple]:
    order = list(sides.items())
    return order if i % 2 == 0 else order[::-1]


def alternate(sides: dict, pairs: int, label: str, run: Callable[[object, int], dict]
              ) -> list[dict]:
    """``run(value, i)`` on each side's value (its checkout, or its package)
    once in each pair i, in ``pair_order``: one ``{"pair", "side", "order",
    **result}`` per run, where ``result`` is what ``run`` returned."""
    runs = []
    for i in range(pairs):
        for order, (side, value) in enumerate(pair_order(i, sides)):
            runs.append({"pair": i, "side": side, "order": order, **run(value, i)})
            print(f"{label} pair {i} {side}: {json.dumps(runs[-1])}", file=sys.stderr)
    return runs


def split(runs: list[dict], value: Callable[[dict], float]) -> tuple[list[float], list[float]]:
    """``value`` of the parent's runs and of the change's, each in pair order."""
    return ([value(r) for r in runs if r["side"] == "parent"],
            [value(r) for r in runs if r["side"] == "change"])


def cpu_ratio(runs: list[dict]) -> dict:
    """Each pair's change ``cpu_s`` over the parent's (``ratios``), their
    ``median`` and ``ci95``, a 95 % bootstrap interval of that median."""
    ratios = [c / p for p, c in zip(*split(runs, lambda r: r["cpu_s"]))]
    rng = random.Random(BOOTSTRAP_SEED)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios)))
               for _ in range(BOOTSTRAP_RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")  # 2.5 %, ..., 97.5 %
    return {"median": statistics.median(ratios), "ci95": [cuts[0], cuts[-1]], "ratios": ratios}


def bench_workloads(sides: dict[str, Path], bench: dict, pairs: int, seconds: float,
                    seed: int | None) -> dict:
    out = {}
    for workload in (w["name"] for w in bench["workloads"]):
        cmd = [*bench["command"], "--workload", workload, "--seconds", repr(seconds),
               "--trace", "0"] + ([] if seed is None else ["--seed", str(seed)])
        runs = alternate(sides, pairs, workload, lambda root, i: last_json_line(cmd, root))
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


def bench_cold_run(sides: dict[str, Path], pairs: int, config: Path, out: Path) -> dict:
    """The ``cold_run`` record of ``COLD_RUN`` on ``config`` (a path in the
    change's checkout, or an absolute one), writing into ``out``."""
    cmd = [sys.executable, "-c", COLD_RUN, str(ROOT / config), str(out)]
    runs = alternate(sides, pairs, "cold_run", lambda root, i: last_json_line(cmd, root))
    return {"config": config.as_posix(),
            **{key: compare(*split(runs, lambda r: r[key]), "lower")
               for key in ("wall_s", "vmhwm_mb")},
            "runs": runs}


def workload_config(workload: str, scratch: Path, seed: int | None) -> tuple[Path, int]:
    """The benchmark's config file for ``workload``, as the change's
    ``perfbench/run.py`` writes it, and its seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import DEFAULT_SEED, config_text

    seed = DEFAULT_SEED if seed is None else seed
    config = scratch / f"{workload}.cfg"
    config.write_text(config_text(workload, seed, scratch / f"{workload}-out"))
    return config, seed


def bench_library(packages: dict[str, ModuleType], configs: dict[str, Path],
                  pairs: dict[str, int], out: Path) -> dict:
    """The ``d32``, ``generate`` and ``memory`` records, each on its config
    in ``configs`` and the timed ones over their ``pairs``; see the module
    docstring. d32 writes into ``out``."""
    d32 = alternate(packages, pairs["d32"], "d32",
                    lambda package, i: run_cpu(package, configs["d32"], out))
    generate = alternate(packages, pairs["generate"], "generate",
                         lambda package, i: generate_cpu(package, configs["generate"], i))
    return {
        "d32": {"config": configs["d32"].as_posix(), "cpu_ratio": cpu_ratio(d32),
                "same_bytes": len({tuple(run["sha256"]) for run in d32}) == 1, "runs": d32},
        "generate": {"cpu_ratio": cpu_ratio(generate), "runs": generate},
        "memory": {side: peak_kib(package, configs["memory"])
                   for side, package in packages.items()},
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
        packages = {side: load_tree(root, f"{side}_poisson_bm") for side, root in sides.items()}
        if preflight(packages, sides, scratch):
            return 1
        rate_sweep, seed = workload_config("rate_sweep", scratch, args.seed)
        long_paths, _ = workload_config("long_paths", scratch, args.seed)
        record = {
            "parent": {"commit": parent_commit},
            "change": change,
            "environment": environment(),
            "settings": {"pairs": args.pairs, "seconds": args.seconds,
                         "seed": "benchmark default" if args.seed is None else args.seed},
            "workloads": bench_workloads(sides, bench, args.pairs, args.seconds, args.seed),
            "cold_run": bench_cold_run(sides, args.pairs, Path("configs/demo.cfg"),
                                       scratch / "cold_run"),
        }
        # after every fresh interpreter, which would inherit this one's peak RSS
        library = bench_library(packages, {"d32": Path("configs/d32.cfg"), "generate": rate_sweep,
                                           "memory": long_paths}, LIBRARY_PAIRS, scratch / "d32")
        record["d32"] = library["d32"]
        record["generate"] = {"workload": "rate_sweep", "seed": seed, **library["generate"]}
        record["memory"] = {"workload": "long_paths", "seed": seed, "peak_kib": library["memory"]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    faults = broken(record)
    for fault in faults:
        print(f"broken change: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
