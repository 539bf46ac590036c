"""The verdict tools/bench_pairs.py gives each end-to-end metric."""

import importlib.util
from pathlib import Path

import pytest

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
