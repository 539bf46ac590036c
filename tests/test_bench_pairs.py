"""The verdicts tools/bench_pairs.py gives each end-to-end metric, its
loading of two trees side by side, its records, and its check of a record
for a broken change."""

import importlib.util
import json
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
    runs = bench_pairs.alternate(sides, 3, "stub",
                                 lambda root, i: bench_pairs.last_json_line(cmd, root))
    assert [(r["pair"], r["order"], r["side"]) for r in runs] == [
        (0, 0, "parent"), (0, 1, "change"), (1, 0, "change"), (1, 1, "parent"),
        (2, 0, "parent"), (2, 1, "change"),
    ]
    for run in runs:
        assert run.keys() == {"pair", "side", "order", "load1", "cwd"}
        assert Path(run["cwd"]) == sides[run["side"]].resolve()
        assert isinstance(run["load1"], float) and run["load1"] >= 0.0


@pytest.mark.parametrize("script", [bench_pairs.COLD_RUN], ids=["cold_run"])
def test_embedded_scripts_run_against_the_checkout(tmp_path, script):
    # a library rename that breaks a script fails here, not when a record is made
    config = tmp_path / "tiny.cfg"
    config.write_text(bench_pairs.PREFLIGHT_CONFIG)
    cmd = [sys.executable, "-c", script, str(config), str(tmp_path / "out")]
    record = bench_pairs.last_json_line(cmd, bench_pairs.ROOT)  # SystemExit unless exit 0
    assert record.keys() == {"exit", "wall_s", "vmhwm_mb", "load1"}
    assert all((tmp_path / "out" / name).is_file() for name in bench_pairs.OUTPUT_FILES)


def test_cold_run_records_both_sides(tmp_path):
    config = tmp_path / "tiny.cfg"  # ROOT / an absolute path is the path
    config.write_text(bench_pairs.PREFLIGHT_CONFIG)
    sides = {"parent": bench_pairs.ROOT, "change": bench_pairs.ROOT}
    record = bench_pairs.bench_cold_run(sides, 1, config, tmp_path / "out")
    assert record["config"] == config.as_posix()
    assert [run["side"] for run in record["runs"]] == ["parent", "change"]
    for run in record["runs"]:
        assert run["exit"] in (0, 1) and run["wall_s"] > 0.0
        assert 5.0 < run["vmhwm_mb"] < 500.0  # MB: numpy and a tiny run
    assert record.keys() == {"config", "wall_s", "vmhwm_mb", "runs"}  # the exit code is no spread
    assert record["vmhwm_mb"]["pairs"] == 1 and record["wall_s"]["better"] == "lower"


ALIASES = ("parent_poisson_bm", "change_poisson_bm")


@pytest.fixture(autouse=True)
def _forget_loaded_trees():
    yield
    for name in [name for name in sys.modules if name.partition(".")[0] in ALIASES]:
        del sys.modules[name]


def _copy_of_checkout(tree):
    """The checkout's package, all that the tool reads of a side."""
    shutil.copytree(bench_pairs.ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tree


def _two_copies(tmp_path):
    sides = {"parent": _copy_of_checkout(tmp_path / "parent"), "change": bench_pairs.ROOT}
    return sides, {side: bench_pairs.load_tree(root, f"{side}_poisson_bm")
                   for side, root in sides.items()}


def test_each_alias_imports_from_its_own_tree(tmp_path):
    sides, packages = _two_copies(tmp_path)
    for side, package in packages.items():
        home = (sides[side] / "src" / "poisson_bm").resolve()
        modules = {name: module for name, module in sys.modules.items()
                   if name.partition(".")[0] == package.__name__}
        assert {"runner", "process", "poisson", "stats"} <= {
            name.partition(".")[2] for name in modules}
        for module in modules.values():
            assert Path(module.__file__).resolve().parent == home
    parent, change = packages.values()
    assert parent.generate_samples is not change.generate_samples
    assert parent.generate_samples.__module__ == "parent_poisson_bm.runner"


def test_a_module_from_elsewhere_is_refused(tmp_path):
    init = _copy_of_checkout(tmp_path / "parent") / "src" / "poisson_bm" / "__init__.py"
    init.write_text(init.read_text()
                    + "\nimport json, sys\nsys.modules[__name__ + '.json'] = json\n")
    with pytest.raises(ImportError, match=r"parent_poisson_bm\.json imported from .*json"):
        bench_pairs.load_tree(tmp_path / "parent", "parent_poisson_bm")


def test_preflight_passes_two_copies_of_the_checkout(tmp_path):
    sides, packages = _two_copies(tmp_path)
    assert bench_pairs.preflight(packages, sides, tmp_path) == []


def test_two_copies_of_the_checkout_agree(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(bench_pairs.PREFLIGHT_CONFIG)
    sides, packages = _two_copies(tmp_path)
    assert bench_pairs.preflight(packages, sides, tmp_path) == []  # and warms both sides
    pairs = {"d32": 2, "generate": 10}
    record = bench_pairs.bench_library(
        packages, {"d32": config, "generate": config, "memory": config}, pairs, tmp_path / "out")
    assert record.keys() == {"d32", "generate", "memory"}
    d32 = record["d32"]
    assert d32.keys() == {"config", "cpu_ratio", "same_bytes", "runs"}
    assert d32["config"] == config.as_posix() and d32["same_bytes"] is True
    assert len(d32["runs"]) == 4 and all(len(run["sha256"]) == 2 for run in d32["runs"])
    generate = record["generate"]
    assert [run["epsilon"] for run in generate["runs"][:4]] == [0.4, 0.4, 0.2, 0.2]
    ratio = generate["cpu_ratio"]
    assert ratio.keys() == {"median", "ci95", "ratios"} and len(ratio["ratios"]) == 10
    low, high = ratio["ci95"]
    assert low <= ratio["median"] <= high
    # a 95 % interval misses the true 1.0 about one time in twenty by design,
    # so this asks only that it reach within 10 % of it
    assert low < 1.1 and high > 1 / 1.1
    peaks = record["memory"]
    assert peaks["parent"].keys() == peaks["change"].keys() == {"0.4", "0.2"}
    for epsilon, kib in peaks["parent"].items():
        assert kib > 0.0 and abs(kib - peaks["change"][epsilon]) < 1.0


def _runs(parent, change):
    return [{"side": side, "cpu_s": cpu_s}
            for pair in zip(parent, change) for side, cpu_s in zip(("parent", "change"), pair)]


def test_cpu_ratio_interval():
    noise = [1.00, 1.03, 0.97, 1.05, 0.95, 1.02, 0.98, 1.04, 0.96, 1.01]
    same = bench_pairs.cpu_ratio(_runs(noise, noise))
    assert same["ratios"] == [1.0] * 10 and same["median"] == 1.0 and same["ci95"] == [1.0, 1.0]
    # ten per cent slower in every pair, give or take the noise: the whole interval lies above 1
    slower = bench_pairs.cpu_ratio(_runs([1.0] * 10, [1.1 * x for x in noise]))
    assert slower["median"] == pytest.approx(1.1 * 1.005) and 1.0 < slower["ci95"][0]
    assert slower["ci95"][0] <= slower["median"] <= slower["ci95"][1] <= 1.1 * 1.05


def _git(*args):
    return "0" * 40 if args[0] == "rev-parse" else ""


def test_a_parent_that_lacks_a_name_stops_before_the_first_pair(tmp_path, monkeypatch, capsys):
    def extract(commit, tree):  # the parent's package without a name two records call
        init = _copy_of_checkout(tree) / "src" / "poisson_bm" / "__init__.py"
        init.write_text(init.read_text() + "\ndel generate_samples\n")

    def alternate(*args):
        raise AssertionError("a pair ran after a failed pre-flight")

    monkeypatch.setattr(bench_pairs, "git", _git)
    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "alternate", alternate)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "p", "--out", str(out)]) == 1
    assert not out.exists()
    faults = capsys.readouterr().err.splitlines()
    assert [f.split(": ")[2].rsplit(" raised", 1)[0] for f in faults] == ["generate", "memory"]
    for fault in faults:
        assert fault.startswith("pre-flight: parent tree ") and "AttributeError" in fault
        assert "generate_samples" in fault


def test_d32_bytes_that_differ_make_the_tool_exit_1(tmp_path, monkeypatch, capsys):
    def extract(commit, tree):  # the parent writes another version into its report
        version = _copy_of_checkout(tree) / "src" / "poisson_bm" / "version.py"
        version.write_text(version.read_text().replace('VERSION = "', 'VERSION = "0.'))

    config = tmp_path / "tiny.cfg"
    config.write_text(bench_pairs.PREFLIGHT_CONFIG)
    monkeypatch.setattr(bench_pairs, "git", _git)
    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "environment", lambda: {})
    monkeypatch.setattr(bench_pairs, "bench_workloads", lambda *args: {})
    monkeypatch.setattr(bench_pairs, "bench_cold_run", lambda *args: {})
    monkeypatch.setattr(bench_pairs, "workload_config", lambda workload, scratch, seed: (config, 7))
    monkeypatch.setattr(bench_pairs, "LIBRARY_PAIRS", {"d32": 1, "generate": 1})
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "p", "--out", str(out)]) == 1
    record = json.loads(out.read_text())
    assert record["d32"]["same_bytes"] is False
    assert bench_pairs.broken(record) == ["configs/d32.cfg: the sides' output bytes differ"]
    assert capsys.readouterr().err.splitlines()[-1] == (
        "broken change: configs/d32.cfg: the sides' output bytes differ")
