"""Experiment orchestration: deterministic Monte Carlo runs and reports.

Each (epsilon, replication) work item derives its own counter-based
stream, samples one Poisson path, and evaluates all components on the
shared grid. Workers, of one pool for the whole run, fill row blocks of
one (replications, dimension, grid) array, gathered in replication
order into the epsilon's SampleBlock. Each check is one row of CHECKS, in report order: its
function of the block, its need on the config, whether ``default`` drops
it when the config cannot feed it, and its cross-epsilon summary;
``runconfig`` reads check names, needs and the bundle from there. Every
statistic is reduced with exactly rounded sums, so the report bytes do
not depend on the worker count or on execution order. Wall-clock seconds
per epsilon, per generation and per check go to the report's timings,
outside the canonical JSON.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .poisson import SMALLEST_NORMAL, sample_poisson_path
from .process import BuildPlan, EvaluationGrid, SampleBlock, build_sample
from .report import RunReport
from .rng import derive_stream
from .stats import (
    NORMALITY_MIN_VALUES,
    RATE_MIN_EPS_COUNT,
    RATE_MIN_SPREAD,
    DegeneratePairError,
    DegenerateSampleError,
    Estimate,
    _estimates,
    _increments_at,
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

if TYPE_CHECKING:
    from concurrent.futures import Executor

    from .runconfig import RunConfig

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


# ----------------------------------------------------------------------
# sample generation (serial and pooled)


def _chunk_values(job: tuple[RunConfig, int, int, int]) -> np.ndarray:
    """Rows [start, stop) of one epsilon's block; ``job`` is
    (config, eps_index, start, stop). The rows' one ``BuildPlan``, on
    the config's grid, is made here, in the process that makes them."""
    config, eps_index, start, stop = job
    plan = BuildPlan(config.theta, config.epsilons[eps_index], config.grid)
    out = np.empty((stop - start, config.theta.dimension, len(plan.grid)))
    for r in range(start, stop):
        stream = derive_stream(config.master_seed, eps_index, r)
        path = sample_poisson_path(plan.needed, stream)
        out[r - start] = build_sample(path, plan).values
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask where
    the platform has one (a ``taskset`` or a container's cpuset narrows
    it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _processes(config: RunConfig) -> int:
    """How many processes make the run's rows: at most ``workers``, one per
    replication and one per CPU the process may run on (``_usable_cpus``).
    The pool and the chunks are both sized from it; rows never depend on
    either, because each row's stream is keyed by its replication index."""
    return min(config.workers, config.replications_M, _usable_cpus())


def _pool(config: RunConfig) -> contextlib.AbstractContextManager[Executor | None]:
    """A pool of ``_processes(config)`` processes or, where that is one,
    ``nullcontext()``: no pool, the caller makes every row. ``workers`` is
    an upper bound, so asking for more than the usable CPUs changes neither
    the bytes nor the work, and where the process may run on one CPU only,
    no pool starts at any worker count. Under fork the pool starts all its
    processes at its first submit."""
    size = _processes(config)
    if size == 1:
        return contextlib.nullcontext()
    # imported here, so that only a run that starts a pool loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=size)


def generate_samples(
    config: RunConfig, grid: EvaluationGrid, eps_index: int, pool: Executor | None = None
) -> SampleBlock:
    """All replications for one epsilon, gathered in replication order.

    ``grid`` must be the config's own, ``config.grid``: ``RunConfig.validate``
    capped the block at its times. The parameter stays until the benchmark
    is re-based (ROADMAP item 2): its tracer reads ``eps_index`` as the
    third positional argument. The rows are cut into eight chunks per
    process of ``_processes(config)``, which go to ``pool`` or, when none
    is given, to ``_pool``'s, shut down on return; where that is no pool,
    this process makes every row. Each chunk's job is (config, eps_index,
    start, stop), and whichever process makes its rows makes their plan;
    the rows are copied into the one (M, d, G) block as they arrive.
    """
    if grid != config.grid:
        raise ValueError(
            f"{grid} is not the config's grid of {config.grid_points} steps "
            f"to T = {config.horizon_T}"
        )
    M = config.replications_M
    with _pool(config) if pool is None else contextlib.nullcontext(pool) as pool:
        if pool is None:
            values = _chunk_values((config, eps_index, 0, M))
        else:
            chunk = -(-M // (8 * _processes(config)))
            jobs = [(config, eps_index, lo, min(lo + chunk, M)) for lo in range(0, M, chunk)]
            values = np.empty((M, config.theta.dimension, len(grid)))
            for (*_, lo, hi), rows in zip(jobs, pool.map(_chunk_values, jobs)):
                values[lo:hi] = rows
    return SampleBlock(epsilon=config.epsilons[eps_index], config=config.theta, grid=grid,
                       values=values)


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
    cov = empirical_increment_covariance(block)
    corr = correlation_matrix(cov)
    assertions = []
    degenerate = []
    for i in range(d):
        for j in range(i, d):
            target = T if i == j else 0.0
            assertions.append(_band_assertion(f"cov[{i + 1},{j + 1}]", cov[i][j], target))
            if j > i and abs(abs(corr[i, j]) - 1.0) <= DEGENERACY_TOL:
                degenerate.append({"i": i + 1, "j": j + 1, "correlation": float(corr[i, j])})
    data = {
        "matrix": [[cov[i][j].to_dict() for j in range(d)] for i in range(d)],
        "correlation": [[float(c) for c in row] for row in corr],
        "degenerate_pairs": degenerate,
    }
    return assertions, data


def _check_qv(block: SampleBlock) -> tuple[list[dict], dict]:
    qvs = quadratic_variation(block)
    return [_band_assertion(f"qv[{c + 1}]", est, block.grid.horizon_T)
            for c, est in enumerate(_estimates(qvs, len(qvs)))], {}


def _check_cross_moments(block: SampleBlock) -> tuple[list[dict], dict]:
    theta = block.config
    assertions = []
    pairs = []
    for (i, j), est in cross_moment(block).items():
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


def _dyadic_depth(steps: int) -> int:
    """The deepest level <= DYADIC_LEVELS whose piece count 2^level
    divides ``steps``; every shallower level's count divides it too."""
    return min(DYADIC_LEVELS, (steps & -steps).bit_length() - 1)


def _dyadic_pairs(grid: EvaluationGrid) -> list[tuple[float, float]]:
    """The dyadic pieces of [0, T], level by level down to ``_dyadic_depth``
    of the grid's steps: (times[k n/p], times[(k+1) n/p])."""
    times, steps = grid.times.tolist(), grid.steps
    out = []
    for level in range(_dyadic_depth(steps) + 1):
        pieces = 2**level
        out += [(times[k * steps // pieces], times[(k + 1) * steps // pieces])
                for k in range(pieces)]
    return out


def _fourth_powers_normal(config: RunConfig) -> bool:
    """Whether the smallest dyadic piece w = T / 2^depth has w^4 at least
    the smallest normal float, exactly. Where no jump reaches, a cosine is
    1 and moves 2(t - s)/eps >= 2(t - s) over a piece; in the limit
    E[Delta^4] is about 3(t - s)^2. So neither Delta^4 nor the ratio's
    (t - s)^2 underflows, and the ratio is never 0/0."""
    width = Fraction(config.horizon_T) / 2 ** _dyadic_depth(config.grid_points)
    return width**4 >= SMALLEST_NORMAL


def _spread(values: list[float]) -> tuple[float, str | None]:
    """max/min of fourth-moment ratios, or NaN and why if the smallest is 0."""
    lowest = min(values)
    return (max(values) / lowest, None) if lowest > 0.0 else (math.nan, ZERO_FOURTH_MOMENT)


def _check_fourth_moment(block: SampleBlock) -> tuple[list[dict], dict]:
    pairs = _dyadic_pairs(block.grid)
    per_pair = [fourth_moment_ratio(block, s, t) for s, t in pairs]
    ratios = []
    assertions = []
    for c, ests in enumerate(zip(*per_pair)):
        ratios += [
            {
                "component": c + 1,
                "s": float(s),
                "t": float(t),
                "value": float(est.value),
                "std_error": float(est.std_error),
            }
            for (s, t), est in zip(pairs, ests)
        ]
        spread, reason = _spread([est.value for est in ests])
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
    deltas = _increments_at(block, 0.0, block.grid.horizon_T)
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
        for c, est in enumerate(martingale_residual(block, s, t, phi_times)):
            assertions.append(_band_assertion(f"residual[{label}][{c + 1}]", est, 0.0))
    return assertions, {"increment": [s, t], "conditioning_times": conditioning}


def _check_stroock(block: SampleBlock) -> tuple[list[dict], dict]:
    T = block.grid.horizon_T
    est = stroock_variance_check(block)
    rescaled = bool(block.config.pi_rescaled_indices)
    target = T if rescaled else 2.0 * T
    return [_band_assertion("variance", est, target)], {"rescaled": rescaled}


# ----------------------------------------------------------------------
# cross-epsilon summaries and the check table


def _rate_summary(per_eps: list[dict], config: RunConfig) -> tuple[dict, list[bool]]:
    """Rate fits from the cross-moment check's data at each epsilon."""
    eps = list(config.epsilons)
    if len(eps) < RATE_MIN_EPS_COUNT or eps[0] / eps[-1] < RATE_MIN_SPREAD:
        return {}, []

    fits = []
    for entries in zip(*(data["pairs"] for data in per_eps)):
        if any(e["bound_total"] is None for e in entries):
            continue  # degenerate pair: no envelope to compare against
        values = np.array([e["estimate"] for e in entries])
        ses = np.array([e["std_error"] for e in entries])
        floored = np.maximum(np.abs(values), ses)
        if np.all(floored > 0.0):
            slope = rate_fit(eps, floored)
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
    return {"rate_fits": fits} if fits else {}, [fit["pass"] for fit in fits]


def _fourth_moment_summary(per_eps: list[dict], config: RunConfig) -> tuple[dict, list[bool]]:
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
    return {"fourth_moment_sweep": out}, [p["pass"] for p in (out, out.get("anchor")) if p]


class Check(NamedTuple):
    """One check. ``need`` is (its test on the config, what it needs, the
    fix); ``summary`` maps the check's data at every epsilon to summary
    entries and their passes."""

    block_fn: Callable[[SampleBlock], tuple[list[dict], dict]]
    need: tuple[Callable[[RunConfig], bool], str, str] | None = None
    default_drops_unfed: bool = False
    summary: Callable[[list[dict], RunConfig], tuple[dict, list[bool]]] | None = None

    def fed(self, config: RunConfig) -> bool:
        return self.need is None or self.need[0](config)


CHECKS = {
    "covariance": Check(_check_covariance),
    "quadratic_variation": Check(_check_qv),
    "cross_moments": Check(
        _check_cross_moments,
        need=(lambda c: c.theta.dimension >= 2, "at least 2 components", "add an angle"),
        default_drops_unfed=True, summary=_rate_summary),
    "fourth_moment": Check(
        _check_fourth_moment,
        need=(_fourth_powers_normal,
              f"w^4 >= {SMALLEST_NORMAL!r} for its smallest dyadic piece w = horizon_T / 2^k, "
              f"2^k the largest power of 2 <= {2**DYADIC_LEVELS} dividing grid_points",
              "raise horizon_T"),
        summary=_fourth_moment_summary),
    "normality": Check(
        _check_normality,
        need=(lambda c: c.replications_M >= NORMALITY_MIN_VALUES,
              f"replications_M >= {NORMALITY_MIN_VALUES}", "raise M")),
    "martingale": Check(
        _check_martingale,
        need=(lambda c: c.grid_points >= 2, "grid_points >= 2", "raise grid_points")),
    "stroock": Check(
        _check_stroock,
        need=(lambda c: bool(c.theta.pi_components),
              "an angle-pi cosine component", "add pi to cos_block"),
        default_drops_unfed=True),
}


# ----------------------------------------------------------------------
# top level


def run_experiment(config: RunConfig) -> RunReport:
    """Run every requested check at every epsilon and build the report.

    Refuses inadmissible angle vectors unless ``allow_invalid_theta`` is
    set (``RunConfig.admissibility``). The run passes when every check at
    every epsilon and every summary pass does.
    """
    hypothesis = config.admissibility()

    grid = config.grid
    checks = config.resolved_checks

    results = []
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    # one pool for the whole run, where it would have more than one process;
    # leaving the block shuts it down, also when a check raises
    with _pool(config) as pool:
        for eps_index, epsilon in enumerate(config.epsilons):
            key = f"epsilon={epsilon:g}"
            t0 = time.perf_counter()
            block = generate_samples(config, grid, eps_index, pool)
            timings[f"{key}/generate"] = time.perf_counter() - t0
            block_checks = []
            for name in checks:
                t = time.perf_counter()
                block_checks.append(_check_entry(name, *CHECKS[name].block_fn(block)))
                timings[f"{key}/{name}"] = time.perf_counter() - t
            results.append({"epsilon": float(epsilon), "checks": block_checks})
            del block  # the next epsilon's block is made without this one alive
            timings[key] = time.perf_counter() - t0

    summary: dict = {}
    passes = [c["pass"] for block in results for c in block["checks"]]
    for k, name in enumerate(checks):
        if CHECKS[name].summary is not None:
            entries, ok = CHECKS[name].summary([b["checks"][k]["data"] for b in results], config)
            summary.update(entries)
            passes += ok
    summary["all_pass"] = all(passes)

    timings["total"] = time.perf_counter() - t_start
    return RunReport(
        tool={"name": TOOL_NAME, "version": VERSION},
        config=config.echo(),
        hypothesis=hypothesis.to_dict(),
        results=results,
        summary=summary,
        timings=timings,
    )
