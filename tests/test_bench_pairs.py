"""The verdicts tools/bench_pairs.py gives each end-to-end metric, and its
check of a record for a broken change."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from simd import avx512_dispatch

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

NARROW = [1.00, 1.01, 0.99, 1.02, 0.98]  # IQR 2 % of the median
WIDE = [0.7, 0.85, 1.0, 1.15, 1.3]  # IQR 30 % of the median


@pytest.mark.parametrize(
    "parent,change,better,want",
    [
        (NARROW, [1.3 * x for x in NARROW], "lower", "worse"),
        (NARROW, [0.7 * x for x in NARROW], "higher", "worse"),
        (WIDE, [1.3 * x for x in WIDE], "lower", "worse"),
        (NARROW, [1.2 * x for x in NARROW], "lower", "not worse"),
        (NARROW, [0.8 * x for x in NARROW], "higher", "not worse"),
        (WIDE, WIDE, "lower", "unresolved"),
        (WIDE, [0.69 - 0.01 * k for k in range(5)], "lower", "not worse"),
        (WIDE, [1.31 + 0.01 * k for k in range(5)], "higher", "not worse"),
    ],
)
def test_verdict_against_a_quarter_bound(parent, change, better, want):
    result = bench_pairs.compare(parent, change, better)
    assert bench_pairs.verdict(result, 0.25) == want


# ten pairs around a median of 1.0; inclusive quartiles 0.92 and 1.08, an IQR of 16 %
PARENT_16 = [0.86, 0.88, 0.92, 0.92, 0.98, 1.02, 1.08, 1.08, 1.10, 1.14]
PARENT_2 = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]


@pytest.mark.parametrize(
    "parent,change,want",
    [
        # every pair won, but the median gap (10.4 %) is inside the parent's IQR
        (PARENT_16, [0.896 * x for x in PARENT_16], "not met"),
        (PARENT_2, [1.5] + [0.8 * x for x in PARENT_2[1:]], "met"),  # 9 of 10
        (PARENT_2, [1.5, 1.5] + [0.8 * x for x in PARENT_2[2:]], "not met"),  # 8 of 10
        (PARENT_2, PARENT_2[:2] + [0.8 * x for x in PARENT_2[2:]], "not met"),  # 8 and 2 ties
    ],
    ids=["median_gap_inside_iqr", "nine_of_ten", "eight_of_ten", "ties_are_not_wins"],
)
def test_claim_verdict(parent, change, want):
    result = bench_pairs.compare(parent, change, "lower")
    assert bench_pairs.claim_verdict(result) == want
    flipped = bench_pairs.compare([-x for x in parent], [-x for x in change], "higher")
    assert bench_pairs.claim_verdict(flipped) == want


def _record(failed=(0, 0), same_bytes=True):
    runs = [{"pair": 0, "side": side, "failed": f} for side, f in zip(("parent", "change"), failed)]
    return {"workloads": {"long_paths": {"runs": runs}, "rate_sweep": {"runs": runs[:1]}},
            "d32": {"config": "configs/d32.cfg", "same_bytes": same_bytes}}


@pytest.mark.parametrize(
    "record,want",
    [
        (_record(), []),
        (_record(failed=(0, 2)), ["long_paths pair 0 change: failed 2"]),
        (_record(same_bytes=False), ["configs/d32.cfg: the sides' output bytes differ"]),
    ],
    ids=["clean", "one_failed_run", "d32_bytes_differ"],
)
def test_broken_change(record, want):
    assert bench_pairs.broken(record) == want


def test_environment_names_the_cpu_model():
    env = bench_pairs.environment()
    assert isinstance(env["cpu_model"], str) and env["cpu_model"]


def test_environment_names_the_avx512_dispatch_state(monkeypatch):
    env = bench_pairs.environment()
    assert env["avx512_dispatch"] == avx512_dispatch()
    present = [t for t, on in (avx512_dispatch() or {}).items() if on]
    if not present:
        pytest.skip("numpy dispatches no AVX-512 target here")
    # numpy reads the variable at import, in the tool's subprocess
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", " ".join(present))
    env = bench_pairs.environment()
    assert env["avx512_dispatch"] == {t: False for t in avx512_dispatch()}


def test_every_run_records_the_host_load_before_it():
    cmd = [sys.executable, "-c", "print('noise'); print('{\"x\": 1}')"]
    result = bench_pairs.last_json_line(cmd, Path.cwd())
    assert result["x"] == 1 and isinstance(result["load1"], float) and result["load1"] >= 0.0


def test_alternate_runs_the_parent_first_in_even_pairs(tmp_path):
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for root in sides.values():
        root.mkdir()
    cmd = [sys.executable, "-c", "import json, os; print(json.dumps({'cwd': os.getcwd()}))"]
    runs = bench_pairs.alternate(sides, 3, "stub", cmd)
    assert [(r["pair"], r["order"], r["side"]) for r in runs] == [
        (0, 0, "parent"), (0, 1, "change"), (1, 0, "change"), (1, 1, "parent"),
        (2, 0, "parent"), (2, 1, "change"),
    ]
    for run in runs:
        assert run.keys() == {"pair", "side", "order", "load1", "cwd"}
        assert Path(run["cwd"]) == sides[run["side"]].resolve()
        assert isinstance(run["load1"], float) and run["load1"] >= 0.0


@pytest.mark.parametrize(
    "script,args,keys",
    [
        ("TIME_RUN", ["out"], {"run_experiment_s", "sha256"}),
        ("TIME_GENERATE", ["1"], {"cpu_us_per_rep", "wall_us_per_rep"}),
        ("TIME_GENERATE", ["2"], {"cpu_us_per_rep", "wall_us_per_rep"}),
        ("TRACE_MEMORY", [], {"0.4", "0.2"}),
        ("COLD_RUN", ["out"], {"exit", "wall_s", "vmhwm_mb"}),
    ],
    ids=["time_run", "time_generate_workers_1", "time_generate_workers_2", "trace_memory",
         "cold_run"],
)
def test_embedded_scripts_run_against_the_checkout(tmp_path, script, args, keys):
    # a library rename that breaks a script fails here, not when a record is made
    config = tmp_path / "tiny.cfg"
    config.write_text(bench_pairs.PREFLIGHT_CONFIG)
    args = [str(tmp_path / a) if a == "out" else a for a in args]
    cmd = [sys.executable, "-c", getattr(bench_pairs, script), str(config), *args]
    record = bench_pairs.last_json_line(cmd, bench_pairs.ROOT)  # SystemExit unless exit 0
    assert record.keys() == keys | {"load1"}
    if script in ("TIME_RUN", "COLD_RUN"):
        assert all((tmp_path / "out" / name).is_file() for name in bench_pairs.OUTPUT_FILES)


@pytest.mark.parametrize("cpus", [1, 2])
def test_generate_script_starts_the_pool_a_run_would(tmp_path, cpus):
    # at workers 2 on one CPU a run starts no pool, and neither does the record
    config = tmp_path / "tiny.cfg"
    config.write_text(bench_pairs.PREFLIGHT_CONFIG)
    script = (f"import os\nos.cpu_count = lambda: {cpus}\n{bench_pairs.TIME_GENERATE}"
              "print(json.dumps({'multiprocessing': 'multiprocessing' in sys.modules}))\n")
    cmd = [sys.executable, "-c", script, str(config), "2"]
    assert bench_pairs.last_json_line(cmd, bench_pairs.ROOT)["multiprocessing"] == (cpus > 1)


def test_cold_run_records_both_sides(tmp_path, monkeypatch):
    config = tmp_path / "tiny.cfg"
    config.write_text(bench_pairs.PREFLIGHT_CONFIG)
    monkeypatch.setattr(bench_pairs, "DEMO_CONFIG", config)  # ROOT / an absolute path
    sides = {"parent": bench_pairs.ROOT, "change": bench_pairs.ROOT}
    record = bench_pairs.bench_cold_run(sides, 1, tmp_path)
    assert [run["side"] for run in record["runs"]] == ["parent", "change"]
    for run in record["runs"]:
        assert run["exit"] in (0, 1) and run["wall_s"] > 0.0
        assert 5.0 < run["vmhwm_mb"] < 500.0  # MB: numpy and a tiny run
    assert record["vmhwm_mb"]["pairs"] == 1 and record["wall_s"]["better"] == "lower"


def _copy_of_checkout(tree):
    """The checkout's package, all that the embedded scripts read of a side."""
    shutil.copytree(bench_pairs.ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tree


def test_preflight_passes_two_copies_of_the_checkout(tmp_path):
    sides = {"parent": _copy_of_checkout(tmp_path / "parent"), "change": bench_pairs.ROOT}
    assert bench_pairs.preflight(sides, tmp_path) == []


def test_a_parent_that_lacks_a_name_stops_before_the_first_pair(tmp_path, monkeypatch, capsys):
    def extract(commit, tree):  # the parent's package without a name two scripts import
        init = _copy_of_checkout(tree) / "src" / "poisson_bm" / "__init__.py"
        init.write_text(init.read_text() + "\ndel generate_samples\n")

    def alternate(*args):
        raise AssertionError("a pair ran after a failed pre-flight")

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40 if args[0] == "rev-parse" else "")
    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "alternate", alternate)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "p", "--out", str(out)]) == 1
    assert not out.exists()
    faults = capsys.readouterr().err.splitlines()
    assert [f.split(": ")[2].split()[0] for f in faults] == ["TIME_GENERATE", "TRACE_MEMORY"]
    for fault in faults:
        assert fault.startswith("pre-flight: parent tree ") and "ImportError" in fault
