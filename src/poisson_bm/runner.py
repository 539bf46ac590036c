"""Experiment orchestration: deterministic Monte Carlo runs and reports.

Each (epsilon, replication) work item derives its own counter-based
stream, samples one Poisson path, and evaluates all components on the
shared grid. Workers fill row blocks of one (replications, dimension,
grid) array, gathered in replication order into the epsilon's
SampleBlock. Each check is a function of that block, looked up by name
in CHECKS, and every statistic is reduced with exact compensated
summation. The report bytes therefore do not depend on the worker count
or on execution order.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .angles import validate_hypothesis_h
from .poisson import sample_poisson_path
from .process import EvaluationGrid, SampleBlock, build_sample, map_to_path_time
from .report import RunReport
from .runconfig import (
    CHECK_COVARIANCE,
    CHECK_CROSS_MOMENTS,
    CHECK_FOURTH_MOMENT,
    CHECK_MARTINGALE,
    CHECK_NORMALITY,
    CHECK_QV,
    CHECK_STROOCK,
    ConfigError,
    RunConfig,
)
from .rng import derive_stream
from .stats import (
    RATE_MIN_EPS_COUNT,
    RATE_MIN_SPREAD,
    DegeneratePairError,
    DegenerateSampleError,
    Estimate,
    correlation_matrix,
    cross_moment,
    empirical_increment_covariance,
    fourth_moment_ratio,
    martingale_residual,
    normality_check,
    quadratic_variation,
    rate_fit,
    stroock_variance_check,
    structural_bound_eval,
)
from .version import TOOL_NAME, VERSION

# Monte Carlo acceptance band, in standard errors. One-in-16000 false
# alarms per scalar check under Gaussian error.
BAND_SIGMAS = 4.0

# |correlation| threshold flagging a pathwise-degenerate component pair.
DEGENERACY_TOL = 1e-12

# Moment bands for the normality check at the reference replication
# count; they widen as 1/sqrt(M) below it.
SKEW_BAND_REF = 0.10
KURT_BAND_REF = 0.15
REF_REPLICATIONS = 5000

# Asymptotic 1% critical point of the Kolmogorov statistic, scaled by
# 1/sqrt(n). Conservative here because parameters are estimated.
KS_CRIT_1PCT = 1.63

HIST_BINS = 50
HIST_SPAN_SD = 5.0

# fourth-moment sweep: dyadic subintervals of [0, T] down to level 2
DYADIC_LEVELS = 2

SLOPE_FLOOR = 1.0
ANCHOR_EPSILON = 0.05
ANCHOR_TARGET = 3.0
ANCHOR_HALF_WIDTH = 0.5
SWEEP_MAX_OVER_MIN = 10.0

# Reasons carried by assertions whose statistic is undefined because a
# component does not move (a counterexample such as sin(pi * N) = 0).
ZERO_FOURTH_MOMENT = (
    "E[Delta^4] is exactly zero on a dyadic interval: the component does not move "
    "there, so no max/min ratio exists"
)
ZERO_CROSS_MOMENT = (
    "a cross moment and its standard error are exactly zero: no log-log slope exists"
)


class InvalidThetaError(ConfigError):
    """Raised when an inadmissible angle vector is run without the override."""

    def __init__(self, message: str, hypothesis: dict):
        super().__init__(message)
        self.hypothesis = hypothesis


# ----------------------------------------------------------------------
# sample generation (serial and pooled)

_WORKER: dict = {}


def _init_worker(config: RunConfig, grid: EvaluationGrid, eps_index: int) -> None:
    _WORKER["config"] = config
    _WORKER["grid"] = grid
    _WORKER["eps_index"] = eps_index


def _chunk_values(start_stop: tuple[int, int]) -> np.ndarray:
    start, stop = start_stop
    config: RunConfig = _WORKER["config"]
    grid: EvaluationGrid = _WORKER["grid"]
    eps_index: int = _WORKER["eps_index"]
    theta = config.theta
    eps = config.epsilons[eps_index]
    horizon = map_to_path_time(grid.horizon_T, eps)
    out = np.empty((stop - start, theta.dimension, len(grid)))
    for r in range(start, stop):
        stream = derive_stream(config.master_seed, eps_index, r)
        path = sample_poisson_path(horizon, stream)
        out[r - start] = build_sample(path, eps, theta, grid).values
    return out


def generate_samples(
    config: RunConfig, grid: EvaluationGrid, eps_index: int
) -> SampleBlock:
    """All replications for one epsilon, gathered in replication order.

    Chunks are cut from ``config.workers`` alone, so the bytes do not
    depend on the host; the pool starts at most one process per chunk
    and per CPU.
    """
    epsilon = config.epsilons[eps_index]
    M = config.replications_M
    initargs = (config, grid, eps_index)
    if config.workers <= 1:
        _init_worker(*initargs)
        values = _chunk_values((0, M))
    else:
        chunk = max(1, -(-M // (config.workers * 8)))
        ranges = [(lo, min(lo + chunk, M)) for lo in range(0, M, chunk)]
        # under fork the pool starts all max_workers processes at the first submit
        pool_size = min(config.workers, len(ranges), os.cpu_count() or 1)
        with ProcessPoolExecutor(
            max_workers=pool_size, initializer=_init_worker, initargs=initargs
        ) as pool:
            blocks = list(pool.map(_chunk_values, ranges))
        values = np.concatenate(blocks, axis=0)
    return SampleBlock(epsilon=epsilon, config=config.theta, grid=grid, values=values)


# ----------------------------------------------------------------------
# individual checks


def _assertion(name: str, value: float, std_error: float | None,
               target: float | None, band: float | None, ok: bool,
               reason: str | None = None) -> dict:
    out = {
        "name": name,
        "value": float(value),
        "std_error": None if std_error is None else float(std_error),
        "target": None if target is None else float(target),
        "band": None if band is None else float(band),
        "pass": bool(ok),
    }
    if reason is not None:
        out["reason"] = reason
    return out


def _band_assertion(name: str, est: Estimate, target: float) -> dict:
    band = BAND_SIGMAS * est.std_error
    ok = abs(est.value - target) <= band
    return _assertion(name, est.value, est.std_error, target, band, ok)


def _check_entry(name: str, assertions: list[dict], data: dict) -> dict:
    """A check's report entry; it passes when all its assertions pass."""
    return {
        "name": name,
        "pass": all(a["pass"] for a in assertions),
        "assertions": assertions,
        "data": data,
    }


def _check_covariance(block: SampleBlock) -> tuple[list[dict], dict]:
    T = block.grid.horizon_T
    d = block.config.dimension
    cov = empirical_increment_covariance(block, 0.0, T)
    corr = correlation_matrix(cov)
    assertions = []
    for i in range(d):
        for j in range(i, d):
            target = T if i == j else 0.0
            assertions.append(_band_assertion(f"cov[{i + 1},{j + 1}]", cov[i][j], target))
    degenerate = []
    for i in range(d):
        for j in range(i + 1, d):
            if abs(abs(corr[i, j]) - 1.0) <= DEGENERACY_TOL:
                degenerate.append(
                    {"i": i + 1, "j": j + 1, "correlation": float(corr[i, j])}
                )
    data = {
        "matrix": [[cov[i][j].to_dict() for j in range(d)] for i in range(d)],
        "correlation": [[float(c) for c in row] for row in corr],
        "degenerate_pairs": degenerate,
    }
    return assertions, data


def _check_qv(block: SampleBlock) -> tuple[list[dict], dict]:
    assertions = []
    for c in range(block.config.dimension):
        est = Estimate.from_observations(quadratic_variation(block, c, block.grid.times))
        assertions.append(_band_assertion(f"qv[{c + 1}]", est, block.grid.horizon_T))
    return assertions, {}


def _check_cross_moments(block: SampleBlock) -> tuple[list[dict], dict]:
    theta, T = block.config, block.grid.horizon_T
    d = theta.dimension
    assertions = []
    pairs = []
    for i in range(d):
        for j in range(i + 1, d):
            est = cross_moment(block, i, j, 0.0, T)
            assertions.append(_band_assertion(f"cross[{i + 1},{j + 1}]", est, 0.0))
            try:
                bound_total = structural_bound_eval(
                    theta.angles[i], theta.angles[j], block.epsilon
                )
            except DegeneratePairError:
                bound_total = None
            pairs.append(
                {
                    "i": i + 1,
                    "j": j + 1,
                    # i < j and the cosine block comes first: coscos, cossin or sinsin
                    "kind": theta.component_kind(i) + theta.component_kind(j),
                    "estimate": float(est.value),
                    "std_error": float(est.std_error),
                    "bound_total": bound_total,
                }
            )
    return assertions, {"pairs": pairs}


def _dyadic_pairs(grid: EvaluationGrid) -> list[tuple[float, float]]:
    """The dyadic subintervals of [0, T] that end on grid times."""
    T = grid.horizon_T
    out = []
    for level in range(DYADIC_LEVELS + 1):
        pieces = 2**level
        for k in range(pieces):
            s, t = k * T / pieces, (k + 1) * T / pieces
            try:
                grid.index_of(s), grid.index_of(t)
            except ValueError:
                continue
            out.append((s, t))
    return out


def _spread(values: list[float]) -> tuple[float, str | None]:
    """max/min of fourth-moment ratios, or NaN and why if the smallest is 0."""
    lowest = min(values)
    return (max(values) / lowest, None) if lowest > 0.0 else (math.nan, ZERO_FOURTH_MOMENT)


def _check_fourth_moment(block: SampleBlock) -> tuple[list[dict], dict]:
    pairs = _dyadic_pairs(block.grid)
    ratios = []
    assertions = []
    for c in range(block.config.dimension):
        per_pair = []
        for s, t in pairs:
            est = fourth_moment_ratio(block, c, s, t)
            per_pair.append(est.value)
            ratios.append(
                {
                    "component": c + 1,
                    "s": float(s),
                    "t": float(t),
                    "value": float(est.value),
                    "std_error": float(est.std_error),
                }
            )
        spread, reason = _spread(per_pair)
        assertions.append(
            _assertion(f"r4_spread[{c + 1}]", spread, None, None, SWEEP_MAX_OVER_MIN,
                       spread <= SWEEP_MAX_OVER_MIN, reason)
        )
    return assertions, {"ratios": ratios}


def _histogram(increments: np.ndarray) -> dict:
    mean = float(np.mean(increments))
    sd = float(np.std(increments))
    lo, hi = mean - HIST_SPAN_SD * sd, mean + HIST_SPAN_SD * sd
    edges = np.linspace(lo, hi, HIST_BINS + 1)
    clipped = np.clip(increments, lo, np.nextafter(hi, -np.inf))  # conserve the count
    counts, _ = np.histogram(clipped, bins=edges)
    return {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def _check_normality(block: SampleBlock) -> tuple[list[dict], dict]:
    M = len(block)
    scale = max(1.0, math.sqrt(REF_REPLICATIONS / M))
    skew_band = SKEW_BAND_REF * scale
    kurt_band = KURT_BAND_REF * scale
    crit = KS_CRIT_1PCT / math.sqrt(M)
    deltas = block.at_time(block.grid.horizon_T) - block.at_time(0.0)
    assertions = []
    histograms = {}
    for c in range(block.config.dimension):
        try:
            rep = normality_check(deltas[:, c])
        except DegenerateSampleError as exc:
            # NaN fails every comparison below; no spread to bin: no histogram
            skew = kurt = ks = math.nan
            reason = str(exc)
        else:
            skew, kurt, ks = rep.skewness, rep.excess_kurtosis, rep.ks_statistic
            reason = None
            histograms[f"comp_{c + 1}"] = _histogram(deltas[:, c])
        assertions += [
            _assertion(f"skew[{c + 1}]", skew, None, 0.0, skew_band,
                       abs(skew) <= skew_band, reason),
            _assertion(f"kurt[{c + 1}]", kurt, None, 0.0, kurt_band,
                       abs(kurt) <= kurt_band, reason),
            _assertion(f"ks[{c + 1}]", ks, None, None, crit, ks < crit, reason),
        ]
    return assertions, {"histograms": histograms}


def _check_martingale(block: SampleBlock) -> tuple[list[dict], dict]:
    times = block.grid.times  # at least 3 points: RunConfig.validate ensures it
    h = len(times) // 2
    q = len(times) // 4
    s, t = float(times[h]), float(times[-1])
    conditioning = [float(times[q]), float(times[h])] if q >= 1 else [float(times[h])]
    assertions = []
    for label, phi_times in (("one", ()), ("tanh", conditioning)):
        for c in range(block.config.dimension):
            est = martingale_residual(block, c, s, t, phi_times)
            assertions.append(_band_assertion(f"residual[{label}][{c + 1}]", est, 0.0))
    return assertions, {"increment": [s, t], "conditioning_times": conditioning}


def _check_stroock(block: SampleBlock) -> tuple[list[dict], dict]:
    T = block.grid.horizon_T
    est = stroock_variance_check(block, T)
    rescaled = bool(block.config.pi_rescaled_indices)
    target = T if rescaled else 2.0 * T
    return [_band_assertion("variance", est, target)], {"rescaled": rescaled}


# check name -> check; every check maps its block to (assertions, data)
CHECKS = {
    CHECK_COVARIANCE: _check_covariance,
    CHECK_QV: _check_qv,
    CHECK_CROSS_MOMENTS: _check_cross_moments,
    CHECK_FOURTH_MOMENT: _check_fourth_moment,
    CHECK_NORMALITY: _check_normality,
    CHECK_MARTINGALE: _check_martingale,
    CHECK_STROOCK: _check_stroock,
}


# ----------------------------------------------------------------------
# cross-epsilon summary


def _rate_summary(per_eps: list[dict], config: RunConfig) -> list[dict] | None:
    """Rate fits from the cross-moment check's data at each epsilon."""
    eps = list(config.epsilons)
    if len(eps) < RATE_MIN_EPS_COUNT or eps[0] / eps[-1] < RATE_MIN_SPREAD:
        return None

    fits = []
    for entries in zip(*(data["pairs"] for data in per_eps)):
        if any(e["bound_total"] is None for e in entries):
            continue  # degenerate pair: no envelope to compare against
        values = np.array([e["estimate"] for e in entries])
        ses = np.array([e["std_error"] for e in entries])
        floored = np.maximum(np.abs(values), ses)
        if np.all(floored > 0.0):
            slope = rate_fit(eps, values, ses)
            # normalize both curves at the largest epsilon, then require the
            # envelope shape to dominate up to the Monte Carlo band
            anchor = floored[0]
            est_n = floored / anchor
            env_n = (np.asarray(eps) / eps[0]) ** 2
            se_n = ses / anchor
            dom_ok = bool(np.all(est_n[1:] < env_n[1:] + BAND_SIGMAS * se_n[1:]))
        else:
            slope, dom_ok = math.nan, False
        fits.append(
            {
                "i": entries[0]["i"],
                "j": entries[0]["j"],
                "kind": entries[0]["kind"],
                "slope": float(slope),
                "pass_slope": bool(slope >= SLOPE_FLOOR),
                "pass_domination": dom_ok,
                "pass": bool(slope >= SLOPE_FLOOR and dom_ok),
                "points": [
                    {
                        "epsilon": float(eps[k]),
                        "estimate": float(values[k]),
                        "std_error": float(ses[k]),
                        "floored_abs_estimate": float(floored[k]),
                        "bound_total": float(entries[k]["bound_total"]),
                    }
                    for k in range(len(eps))
                ],
            }
        )
        if math.isnan(slope):
            fits[-1]["reason"] = ZERO_CROSS_MOMENT
    return fits or None


def _fourth_moment_summary(per_eps: list[dict], config: RunConfig) -> dict:
    """The sweep over every epsilon's ratios; the anchor reads the last's."""
    all_ratios = [r["value"] for data in per_eps for r in data["ratios"]]
    spread, reason = _spread(all_ratios)
    out = {
        "max": float(max(all_ratios)),
        "min": float(min(all_ratios)),
        "max_over_min": float(spread),
        "pass": bool(spread <= SWEEP_MAX_OVER_MIN),
    }
    if reason is not None:
        out["reason"] = reason
    smallest = config.epsilons[-1]
    anchor_ratios = [r["value"] for r in per_eps[-1]["ratios"]
                     if r["s"] == 0.0 and r["t"] == config.horizon_T]
    # Gaussian-limit anchor is only meaningful close to the limit
    if smallest <= ANCHOR_EPSILON and anchor_ratios:
        ok = all(abs(r - ANCHOR_TARGET) <= ANCHOR_HALF_WIDTH for r in anchor_ratios)
        out["anchor"] = {
            "epsilon": float(smallest),
            "ratios": [float(r) for r in anchor_ratios],
            "target": ANCHOR_TARGET,
            "half_width": ANCHOR_HALF_WIDTH,
            "pass": bool(ok),
        }
    return out


# ----------------------------------------------------------------------
# top level


def run_experiment(config: RunConfig) -> RunReport:
    """Run every requested check at every epsilon and build the report.

    Refuses inadmissible angle vectors unless ``allow_invalid_theta`` is
    set (the counterexample mode); the refusal carries the full
    validation report.
    """
    hypothesis = validate_hypothesis_h(config.theta)
    if not hypothesis.valid and not config.allow_invalid_theta:
        raise InvalidThetaError(
            "angle vector fails the admissibility conditions "
            "(set allow_invalid_theta = true to run it as a counterexample): "
            + "; ".join(
                f"{v.rule}{v.indices}" for v in hypothesis.violations
            ),
            hypothesis.to_dict(),
        )

    grid = EvaluationGrid.uniform(config.horizon_T, config.grid_points)
    checks = config.resolved_checks

    results = []
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    for eps_index, epsilon in enumerate(config.epsilons):
        t0 = time.perf_counter()
        block = generate_samples(config, grid, eps_index)
        block_checks = [_check_entry(name, *CHECKS[name](block)) for name in checks]
        results.append({"epsilon": float(epsilon), "checks": block_checks})
        timings[f"epsilon={epsilon:g}"] = time.perf_counter() - t0

    # each check's data across epsilon, for the summaries that read it
    data = {name: [b["checks"][k]["data"] for b in results] for k, name in enumerate(checks)}
    summary: dict = {}
    if CHECK_CROSS_MOMENTS in checks:
        fits = _rate_summary(data[CHECK_CROSS_MOMENTS], config)
        if fits is not None:
            summary["rate_fits"] = fits
    if CHECK_FOURTH_MOMENT in checks:
        summary["fourth_moment_sweep"] = _fourth_moment_summary(
            data[CHECK_FOURTH_MOMENT], config
        )

    sweep = summary.get("fourth_moment_sweep", {})
    summary["all_pass"] = all(
        [c["pass"] for block in results for c in block["checks"]]
        + [fit["pass"] for fit in summary.get("rate_fits", [])]
        + [part["pass"] for part in (sweep, sweep.get("anchor")) if part]
    )

    timings["total"] = time.perf_counter() - t_start
    return RunReport(
        tool={"name": TOOL_NAME, "version": VERSION},
        config=config.echo(),
        hypothesis=hypothesis.to_dict(),
        results=results,
        summary=summary,
        timings=timings,
    )
