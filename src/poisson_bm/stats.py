"""Monte Carlo estimators and analytic envelope evaluators.

Every estimator reads one SampleBlock, the (replications, dimension,
grid) array of one epsilon, and returns point estimates with standard
errors (sample standard deviation over sqrt(replications)). Reductions
use exact compensated summation (math.fsum), so results are independent
of accumulation order and bit-identical between sequential and
gathered-parallel execution.

Two rules hold for every estimator, each stated once: an increment
needs s < t (``_increments_at``, checked before anything else), and an
estimate needs at least two observations (``Estimate.from_observations``).

The martingale and cross-moment estimators weight each replication by
a bounded function phi of the history before the increment. phi is
given by its conditioning times: the product over them of tanh of the
coordinate sum at that time, with no times meaning phi = 1 (the empty
product).

The envelope evaluator returns the epsilon^2 decay bound governing
increment cross-moments; its factors are 1/(1 - cos(.)) terms in the
difference and sum of the two angles. The unknown multiplicative
constant in front of the analytic bound is deliberately not modeled:
totals are only meaningful for relative-rate comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtr

from .angles import Angle, TAU_THETA, parse_angle
from .poisson import decay_factor
from .process import SampleBlock

TWO_PI = 2.0 * math.pi

# a rate fit needs at least this many epsilons, spanning at least this
# factor end to end (the acceptance sweeps span a factor of 4)
RATE_MIN_EPS_COUNT = 3
RATE_MIN_SPREAD = 2.0


class DegeneratePairError(ValueError):
    """An envelope factor 1/(1 - cos(.)) is evaluated at a vanishing argument."""


class DegenerateSampleError(ValueError):
    """A statistic is undefined because its input has zero spread."""


def compensated_sum(values: Iterable[float]) -> float:
    """Exactly rounded sum (Shewchuk compensation via math.fsum).

    Order-independent up to the final rounding, which is what makes the
    parallel-gather reduction bit-identical to the sequential one.
    """
    return math.fsum(values)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with its standard error."""

    value: float
    std_error: float
    replications: int

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")

    @classmethod
    def from_observations(cls, xs: np.ndarray) -> "Estimate":
        xs = np.asarray(xs, dtype=np.float64)
        n = xs.size
        if n < 2:
            raise ValueError("need at least 2 observations")
        mean = compensated_sum(xs) / n
        var = compensated_sum((xs - mean) ** 2) / (n - 1)
        return cls(value=mean, std_error=math.sqrt(var / n), replications=n)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "replications": self.replications,
        }


def _increments_at(block: SampleBlock, s: float, t: float) -> np.ndarray:
    """(replications, dimension) increments x(t) - x(s); needs s < t."""
    if not s < t:
        raise ValueError(f"need s < t, got ({s}, {t})")
    return block.at_time(t) - block.at_time(s)


def _phi_values(
    block: SampleBlock, conditioning: Sequence[float], s: float
) -> np.ndarray:
    """phi evaluated per replication: the product over the conditioning
    times of tanh of the coordinate sum there, 1 when there are none.

    The times must be nondecreasing and must not exceed the increment
    start s, so that phi reads only the history before the increment.
    """
    ts = [float(t) for t in conditioning]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("conditioning times must be nondecreasing")
    if ts and ts[-1] > s:
        raise ValueError("conditioning times must not exceed the increment start")
    out = np.ones(len(block))
    for t in ts:
        out *= np.tanh(block.at_time(t).sum(axis=1))
    return out


def _centered_product(a: np.ndarray, b: np.ndarray) -> Estimate:
    """Covariance estimate from two centered columns: sum(a * b) / (M - 1),
    with the standard error of the per-replication products."""
    w = a * b
    M = w.size
    se = Estimate.from_observations(w).std_error
    return Estimate(value=compensated_sum(w) / (M - 1), std_error=se, replications=M)


def empirical_increment_covariance(
    block: SampleBlock, s: float, t: float
) -> list[list[Estimate]]:
    """Sample covariance matrix of the increments over (s, t).

    Entry (i, j) estimates Cov(Delta_i, Delta_j) with a standard error
    from the per-replication centered products. In the small-epsilon
    limit the diagonal targets t - s and the off-diagonal targets 0.
    """
    deltas = _increments_at(block, s, t)  # (M, d)
    d = deltas.shape[1]
    means = np.array([Estimate.from_observations(deltas[:, c]).value for c in range(d)])
    centered = deltas - means
    out: list[list[Estimate]] = [[None] * d for _ in range(d)]  # type: ignore[list-item]
    for i in range(d):
        for j in range(i, d):
            out[i][j] = out[j][i] = _centered_product(centered[:, i], centered[:, j])
    return out


def correlation_matrix(cov: Sequence[Sequence[Estimate]]) -> np.ndarray:
    d = len(cov)
    corr = np.eye(d)
    for i in range(d):
        for j in range(d):
            denom = math.sqrt(cov[i][i].value * cov[j][j].value)
            corr[i, j] = cov[i][j].value / denom if denom > 0 else math.nan
    return corr


def cross_moment(
    block: SampleBlock,
    i: int,
    j: int,
    s: float,
    t: float,
    conditioning: Sequence[float] = (),
) -> Estimate:
    """Estimate E[phi(history) * Delta_i * Delta_j] over the increment (s, t).

    phi is the tanh product over the ``conditioning`` times
    (nondecreasing, at most s); no times means phi = 1. Components are
    0-based. The diagonal with phi = 1 is the quadratic-variation route,
    not a cross-moment; it is rejected here.
    """
    if i == j and len(conditioning) == 0:
        raise ValueError("i == j with the constant weight is the quadratic-variation path")
    deltas = _increments_at(block, s, t)
    w = _phi_values(block, conditioning, s)
    return Estimate.from_observations(w * deltas[:, i] * deltas[:, j])


def martingale_residual(
    block: SampleBlock,
    component: int,
    s: float,
    t: float,
    conditioning: Sequence[float] = (),
) -> Estimate:
    """Estimate E[phi(history) * Delta] for one component's increment over (s, t).

    phi is the tanh product over the ``conditioning`` times
    (nondecreasing, at most s); no times means phi = 1.
    """
    deltas = _increments_at(block, s, t)
    w = _phi_values(block, conditioning, s)
    return Estimate.from_observations(w * deltas[:, component])


def quadratic_variation(
    block: SampleBlock, component: int, partition: Sequence[float]
) -> np.ndarray:
    """Per-replication sums of squared increments of one component over a
    grid partition: one value per row of the block."""
    ts = np.asarray(partition, dtype=np.float64)
    if ts.size < 2:
        raise ValueError("partition needs at least 2 points")
    if ts[0] != 0.0:
        raise ValueError("partition must start at 0")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("partition must be strictly increasing")
    idx = [block.grid.index_of(t) for t in ts.tolist()]
    squares = np.diff(block.values[:, component, idx], axis=1) ** 2
    return np.array([compensated_sum(row) for row in squares])


def fourth_moment_ratio(
    block: SampleBlock, component: int, s: float, t: float
) -> Estimate:
    """Estimate E[Delta^4] / (t - s)^2 for one component's increment.

    The tightness bound asserts this is bounded uniformly in epsilon;
    the Gaussian limit pins it near 3.
    """
    deltas = _increments_at(block, s, t)
    return Estimate.from_observations(deltas[:, component] ** 4 / (t - s) ** 2)


@dataclass(frozen=True)
class NormalityReport:
    skewness: float
    excess_kurtosis: float
    ks_statistic: float


def normality_check(increments: np.ndarray) -> NormalityReport:
    """Sample skewness, excess kurtosis, and the Kolmogorov-Smirnov distance.

    The data are standardized internally (sample mean and standard
    deviation) and the KS statistic is taken against the standard normal
    CDF; at the sizes used here the estimated-parameter effect only makes
    the classical critical values conservative.
    """
    xs = np.asarray(increments, dtype=np.float64)
    if xs.size < 100:
        raise ValueError(f"need at least 100 values, got {xs.size}")
    n = xs.size
    mean = compensated_sum(xs) / n
    var = compensated_sum((xs - mean) ** 2) / n
    if var <= 0.0:
        raise DegenerateSampleError("degenerate input: zero variance")
    z = (xs - mean) / math.sqrt(var)
    m3 = compensated_sum(z**3) / n
    m4 = compensated_sum(z**4) / n

    zs = np.sort(z)
    cdf = ndtr(zs)
    hi = np.arange(1, n + 1) / n - cdf
    lo = cdf - np.arange(0, n) / n
    d = float(max(hi.max(), lo.max()))
    return NormalityReport(
        skewness=float(m3), excess_kurtosis=float(m4 - 3.0), ks_statistic=d
    )


def stroock_variance_check(block: SampleBlock, t: float) -> Estimate:
    """Empirical variance at time t of the angle-pi cosine component.

    The unrescaled component targets 2t; with the 1/sqrt(2) rescale the
    target is t. Errors out when the configuration has no angle-pi
    cosine component.
    """
    pi_components = [i for i, a in enumerate(block.config.cos_block) if a.is_pi]
    if not pi_components:
        raise ValueError("no angle-pi cosine component in this configuration")
    x = block.at_time(t)[:, pi_components[0]]
    centered = x - Estimate.from_observations(x).value
    return _centered_product(centered, centered)


def _check_nondegenerate(label: str, angle_value: float) -> None:
    # distance from the angle to the nearest multiple of 2*pi
    if abs(math.remainder(angle_value, TWO_PI)) <= TAU_THETA:
        raise DegeneratePairError(
            f"envelope factor for {label} is degenerate: "
            f"angle {angle_value!r} is within {TAU_THETA} of a multiple of 2*pi"
        )


def structural_bound_eval(
    theta_i: float | Angle,
    theta_j: float | Angle,
    epsilon: float,
) -> float:
    """The epsilon^2 decay envelope for one angle pair, as its total.

    total = eps^2 * [ (1/d(th_j)) * (1/d(th_i - th_j) + 1/d(th_i + th_j))
                    + (1/d(th_i)) * (1/d(th_j - th_i) + 1/d(th_i + th_j)) ]

    with d(.) = 1 - cos(.). The cosine/cosine, sine/sine and cosine/sine
    pairings share these moduli (the mixed case is the imaginary part of
    the same complex integrals). Raises :class:`DegeneratePairError`
    when any factor vanishes, which is exactly what the admissibility
    conditions rule out.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    ti = parse_angle(theta_i).radians
    tj = parse_angle(theta_j).radians

    _check_nondegenerate("theta_i", ti)
    _check_nondegenerate("theta_j", tj)
    _check_nondegenerate("theta_i - theta_j", ti - tj)
    _check_nondegenerate("theta_i + theta_j", ti + tj)

    d_i = decay_factor(ti)
    d_j = decay_factor(tj)
    d_diff = decay_factor(ti - tj)
    d_sum = decay_factor(ti + tj)

    factors = (
        (1.0 / d_j) * (1.0 / d_diff),
        (1.0 / d_j) * (1.0 / d_sum),
        (1.0 / d_i) * (1.0 / d_diff),
        (1.0 / d_i) * (1.0 / d_sum),
    )
    return (epsilon * epsilon) * compensated_sum(factors)


def rate_fit(
    epsilons: Sequence[float],
    estimates: Sequence[float],
    std_errors: Sequence[float] | None = None,
) -> float:
    """Least-squares slope of log|estimate| against log(epsilon).

    Estimates are floored at their standard errors before taking logs:
    once the true moment falls below Monte Carlo resolution the raw
    magnitude is pure noise and would corrupt the fit.
    """
    eps = np.asarray(epsilons, dtype=np.float64)
    vals = np.abs(np.asarray(estimates, dtype=np.float64))
    if eps.size < RATE_MIN_EPS_COUNT:
        raise ValueError(f"need at least {RATE_MIN_EPS_COUNT} epsilon values")
    if eps.size != vals.size:
        raise ValueError("epsilons and estimates must have equal length")
    if np.any(eps <= 0):
        raise ValueError("epsilons must be positive")
    if np.any(np.diff(eps) >= 0):
        raise ValueError("epsilons must be strictly decreasing")
    if eps[0] / eps[-1] < RATE_MIN_SPREAD:
        raise ValueError(
            f"epsilon range too narrow for a rate fit (need a factor >= {RATE_MIN_SPREAD:g})"
        )
    if std_errors is not None:
        ses = np.asarray(std_errors, dtype=np.float64)
        if ses.size != vals.size:
            raise ValueError("std_errors length mismatch")
        vals = np.maximum(vals, ses)
    if np.any(vals <= 0):
        raise ValueError("estimates must be positive after flooring")
    slope, _ = np.polyfit(np.log(eps), np.log(vals), 1)
    return float(slope)
