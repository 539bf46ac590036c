"""Run reports: canonical JSON, CSV assertion tables, and plot data.

The JSON report is canonical: for a fixed configuration and master seed
its bytes are identical across runs and worker counts. Wall-clock
timings therefore live in a sidecar file (timings.txt), never in the
JSON. The JSON is strict: a statistic that does not exist (NaN) is
written as null. Every numeric cell in CSV output is written with 17
significant digits so identical doubles round-trip identically; a cell
with no number is left empty.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

PLOT_RATE_LOGLOG = "RATE_LOGLOG"
PLOT_COV_HEATMAP = "COV_HEATMAP"
PLOT_MARGINAL_HIST = "MARGINAL_HIST"

REPORT_FILENAME = "report.json"
ASSERTIONS_FILENAME = "assertions.csv"
TIMINGS_FILENAME = "timings.txt"

# the keys of report.json, in the order they are written
_CANONICAL_KEYS = ("tool", "config", "hypothesis", "results", "summary")


def fmt17(x: float) -> str:
    return f"{x:.17g}"


def _finite_or_null(obj):
    """The JSON tree with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _csv_text(header: str, rows) -> str:
    """``header``, then each row's cells joined by ","; every line ends in LF."""
    return "".join(line + "\n" for line in (header, *map(",".join, rows)))


def _log17(x: float) -> str:
    """log(x) as a CSV cell; empty where the log does not exist."""
    return fmt17(math.log(x)) if x > 0.0 else ""


@dataclass
class RunReport:
    """Full experiment outcome: config echo, per-epsilon checks, summary.

    ``results`` is a list of {"epsilon": e, "checks": [...]} entries in
    the epsilon order of the run; each check carries scalar assertions
    of the form {name, value, std_error, target, band, pass} plus
    optional plot payloads under "data". ``timings`` is excluded from
    the canonical JSON.
    """

    tool: dict
    config: dict
    hypothesis: dict
    results: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return bool(self.summary.get("all_pass", False))

    def canonical_dict(self) -> dict:
        return {key: getattr(self, key) for key in _CANONICAL_KEYS}

    def to_json_text(self) -> str:
        return json.dumps(_finite_or_null(self.canonical_dict()), indent=2,
                          allow_nan=False) + "\n"

    def assertions_csv_text(self) -> str:
        return _csv_text("epsilon,check,assertion,value,std_error,target,band,pass", (
            (fmt17(block["epsilon"]), check["name"], a["name"],
             # a NaN value comes back from report.json as null
             fmt17(math.nan if a["value"] is None else a["value"]),
             fmt17(a["std_error"]) if a.get("std_error") is not None else "",
             fmt17(a["target"]) if a.get("target") is not None else "",
             fmt17(a["band"]) if a.get("band") is not None else "",
             "1" if a["pass"] else "0")
            for block in self.results
            for check in block["checks"]
            for a in check.get("assertions", [])
        ))

    def timings_text(self) -> str:
        lines = ["# wall-clock timings (seconds); not part of the canonical report"]
        for key, seconds in self.timings.items():
            lines.append(f"{key} = {seconds:.3f}")
        return "\n".join(lines) + "\n"

    def write(self, output_dir: str | Path) -> Path:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / REPORT_FILENAME).write_text(self.to_json_text(), encoding="utf-8")
        (out / ASSERTIONS_FILENAME).write_text(self.assertions_csv_text(), encoding="utf-8")
        (out / TIMINGS_FILENAME).write_text(self.timings_text(), encoding="utf-8")
        return out / REPORT_FILENAME

    @classmethod
    def from_json_file(cls, path: str | Path) -> "RunReport":
        """The report in ``path``; ValueError if the file holds no report."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not (
            isinstance(doc, dict)
            and all(key in doc for key in _CANONICAL_KEYS)
            and isinstance(doc["results"], list)
            and doc["results"]
        ):
            raise ValueError(
                f"{path} is not a report: expected a JSON object with "
                f"{', '.join(_CANONICAL_KEYS)} and at least one result"
            )
        return cls(**{key: doc[key] for key in _CANONICAL_KEYS})


def _find_check(report: RunReport, epsilon: float | None, name: str) -> dict:
    blocks = report.results
    if epsilon is None:
        block = blocks[-1]  # smallest epsilon: runs go large to small
    else:
        matches = [b for b in blocks if b["epsilon"] == epsilon]
        if not matches:
            raise ValueError(f"no results for epsilon {epsilon!r}")
        block = matches[0]
    for check in block["checks"]:
        if check["name"] == name:
            return check
    raise ValueError(f"check {name!r} missing from the report at epsilon {block['epsilon']}")


def _rate_csv(report: RunReport, pair: tuple[int, int] | None) -> str:
    fits = report.summary.get("rate_fits")
    if not fits:
        raise ValueError("report has no rate summary (need >= 3 epsilons and cross_moments)")
    if pair is None:
        entry = fits[0]
    else:
        matches = [f for f in fits if (f["i"], f["j"]) == pair]
        if not matches:
            raise ValueError(f"no rate fit for component pair {pair}")
        entry = matches[0]
    keys = ("epsilon", "floored_abs_estimate", "bound_total")
    return _csv_text("log_epsilon,log_abs_estimate,log_bound_total",
                     ([_log17(point[k]) for k in keys] for point in entry["points"]))


def _cov_csv(report: RunReport, epsilon: float | None) -> str:
    check = _find_check(report, epsilon, "covariance")
    matrix = check["data"]["matrix"]
    return _csv_text("i,j,value,std_error",
                     ((str(i), str(j), fmt17(cell["value"]), fmt17(cell["std_error"]))
                      for i, row in enumerate(matrix, start=1)
                      for j, cell in enumerate(row, start=1)))


def _hist_csv(report: RunReport, epsilon: float | None, component: int) -> str:
    check = _find_check(report, epsilon, "normality")
    hists = check["data"]["histograms"]
    key = f"comp_{component}"
    if key not in hists:
        raise ValueError(f"no histogram for component {component}")
    h = hists[key]
    edges = h["edges"]
    return _csv_text("bin_left,bin_right,count",
                     ((fmt17(edges[k]), fmt17(edges[k + 1]), str(count))
                      for k, count in enumerate(h["counts"])))


def emit_plot_data(
    report: RunReport,
    kind: str,
    epsilon: float | None = None,
    pair: tuple[int, int] | None = None,
    component: int = 1,
) -> str:
    """Plot-ready CSV for one of the three supported plot kinds.

    RATE_LOGLOG: one row per epsilon with (log eps, log |estimate|,
    log bound total) for one component pair (default: the first); an
    estimate floored to exactly 0 leaves its log cell empty.
    COV_HEATMAP: d*d rows of (i, j, value, std_error).
    MARGINAL_HIST: 50 bins spanning +-5 standard deviations, counts
    summing to the replication count. A report that lacks an entry the
    plot reads raises ValueError naming it.
    """
    try:
        if kind == PLOT_RATE_LOGLOG:
            return _rate_csv(report, pair)
        if kind == PLOT_COV_HEATMAP:
            return _cov_csv(report, epsilon)
        if kind == PLOT_MARGINAL_HIST:
            return _hist_csv(report, epsilon, component)
    except KeyError as exc:
        raise ValueError(f"malformed report: no key {exc}") from None
    except IndexError as exc:
        raise ValueError(f"malformed report: a list is too short ({exc})") from None
    raise ValueError(f"unknown plot kind {kind!r}")
