"""Monte Carlo estimators and analytic envelope evaluators.

Every estimator reads one SampleBlock, the (replications, dimension,
grid) array of one epsilon, and returns point estimates with standard
errors (sample standard deviation over sqrt(replications)). Every
reduction is exactly rounded: each lane of a sum equals math.fsum of
that lane bit for bit, so results are independent of accumulation order
and bit-identical between sequential and gathered-parallel execution.
The sums run as a few numpy passes per lane (AccSum's error-free
extraction, Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008);
math.fsum rounds each lane's few exact partial sums once, and takes
whole any lane that holds a non-finite value or lies near overflow or
the subnormal range.

Two rules hold for every estimator, each stated once: an increment
needs s < t (``_increments_at``, checked before anything else), and an
estimate needs at least two observations (``_estimates``). Each
estimator of an increment reads the block once and returns every
component, or every pair of components, at once.

The martingale estimator weights each replication by a bounded
function phi of the history before the increment. phi is
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
from typing import Sequence

import numpy as np

from .angles import TWO_PI, Angle, TAU_THETA, parse_angle
from .poisson import decay_factor
from .process import SampleBlock

# a rate fit needs at least this many epsilons, spanning at least this
# factor end to end (the acceptance sweeps span a factor of 4)
RATE_MIN_EPS_COUNT = 3
RATE_MIN_SPREAD = 2.0

# the normality check needs at least this many values
NORMALITY_MIN_VALUES = 100


class DegeneratePairError(ValueError):
    """An envelope factor 1/(1 - cos(.)) is evaluated at a vanishing argument."""


class DegenerateSampleError(ValueError):
    """A statistic is undefined because its input has zero spread."""


# Extraction runs while sigma lies in [2^SIGMA_EXP_MIN, 2^SIGMA_EXP_MAX].
# A lane whose sigma would leave it goes whole to math.fsum, as a lane
# with a NaN or an infinity does: above, the lane could overflow, and
# fsum's result or error is the right one; below, the ulp of sigma nears
# the subnormal range.
_SIGMA_EXP_MAX = 1000
_SIGMA_EXP_MIN = -1000

# Lanes whose exact partials math.fsum rounds per batch: the Python floats
# and tuples of a batch, not of every lane, are alive at once.
_FSUM_LANES = 4096


def _exact_sum(values: np.ndarray, axis: int | None = None):
    """math.fsum of ``values``, bit for bit: of a whole 1-D array when
    ``axis`` is None (a float), else of each column (axis 0) or each row
    (axis 1) of a 2-D array (an array of those lanes' sums).

    Each round takes sigma = 2^(e + k) per lane, with 2^e above the
    largest remaining |x| and 2^k >= n + 2. Then q = (x + sigma) - sigma
    is x rounded to a multiple of ulp(sigma)/2 with |q| <= 2^e, so every
    partial sum of the q's is a multiple of ulp(sigma)/2 below sigma:
    exact in any order. x - q is exact too, and at most ulp(sigma)/2,
    so each round strips at least 52 - k bits. A lane ends when its
    remainder is zero, and math.fsum rounds the sum of its exact
    partials once, ``_FSUM_LANES`` lanes at a time.
    """
    x = np.asarray(values, dtype=np.float64)
    lanes = x.reshape(1, -1) if axis is None else (x.T if axis == 0 else x)  # (L, n)
    L, n = lanes.shape
    # reduce along the longer side: many short lanes run down the columns
    ax = 0 if L > n else 1
    rest = np.array(lanes.T if ax == 0 else lanes, order="C")
    q = np.empty_like(rest)
    k = (n + 1).bit_length()  # the least k with 2^k >= n + 2
    whole = np.zeros(L, dtype=bool)
    parts = [np.zeros(L)]
    while n:  # empty lanes sum to 0.0
        np.abs(rest, out=q)
        top = q.max(axis=ax, keepdims=True)
        s = np.frexp(top)[1] + k
        # sigma out of range, or a NaN (compares false) or an infinity
        leave = (top != 0.0) & ~((top < 2.0 ** (_SIGMA_EXP_MAX - k)) & (s >= _SIGMA_EXP_MIN))
        if leave.any():
            whole |= leave.ravel()
            np.copyto(rest, 0.0, where=leave)
            top[leave] = 0.0
            s[leave] = k  # a zeroed lane stays zero at sigma = 2^k
        if not top.any():
            break
        sigma = np.ldexp(1.0, s)
        np.add(rest, sigma, out=q)
        q -= sigma
        rest -= q
        parts.append(q.sum(axis=ax))
    sums = np.empty(L)
    for lo in range(0, L, _FSUM_LANES):
        batch = zip(*(p[lo:lo + _FSUM_LANES].tolist() for p in parts))
        sums[lo:lo + _FSUM_LANES] = [math.fsum(p) for p in batch]
    for j in np.flatnonzero(whole):
        sums[j] = math.fsum(lanes[j].tolist())
    return float(sums[0]) if axis is None else sums


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
        column = np.array(xs, dtype=np.float64).reshape(-1, 1)
        return _estimates(column, column.shape[0])[0]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "replications": self.replications,
        }


def _estimates(obs: np.ndarray, divisor: float) -> list[Estimate]:
    """One estimate per column of the (n, L) observations: the column's
    exact sum / ``divisor``, with the standard error of its mean (sample
    standard deviation / sqrt(n)). Overwrites obs with the squared
    deviations from the mean."""
    n = obs.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations")
    total = _exact_sum(obs, axis=0)
    obs -= total / n
    obs *= obs
    se = np.sqrt(_exact_sum(obs, axis=0) / (n - 1) / n)
    return [
        Estimate(value=value, std_error=std_error, replications=n)
        for value, std_error in zip((total / divisor).tolist(), se.tolist())
    ]


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


def _pair_estimates(
    x: np.ndarray, first: int, divisor: float
) -> dict[tuple[int, int], Estimate]:
    """Estimates of x_i * x_j over the (M, d) columns x, for every pair
    with j >= i + first, in row-major order: one row of products, and
    one exact reduction, per i."""
    d = x.shape[1]
    out: dict[tuple[int, int], Estimate] = {}
    for i in range(d - first):
        row = _estimates(x[:, i][:, None] * x[:, i + first :], divisor)
        out.update(zip([(i, j) for j in range(i + first, d)], row))
    return out


def empirical_increment_covariance(block: SampleBlock) -> list[list[Estimate]]:
    """Sample covariance matrix of the increments over (0, T).

    Entry (i, j) estimates Cov(Delta_i, Delta_j) with a standard error
    from the per-replication centered products. In the small-epsilon
    limit the diagonal targets T and the off-diagonal targets 0.
    """
    centered = _increments_at(block, 0.0, block.grid.horizon_T)  # (M, d)
    M, d = centered.shape
    centered -= _exact_sum(centered, axis=0) / M
    upper = _pair_estimates(centered, 0, M - 1)
    return [[upper[min(i, j), max(i, j)] for j in range(d)] for i in range(d)]


def correlation_matrix(cov: Sequence[Sequence[Estimate]]) -> np.ndarray:
    d = len(cov)
    corr = np.eye(d)
    for i in range(d):
        for j in range(d):
            denom = math.sqrt(cov[i][i].value * cov[j][j].value)
            corr[i, j] = cov[i][j].value / denom if denom > 0 else math.nan
    return corr


def cross_moment(block: SampleBlock) -> dict[tuple[int, int], Estimate]:
    """Estimate E[Delta_i * Delta_j] over the increment (0, T) for every
    pair of 0-based components i < j, keyed (i, j) in row-major order;
    one component has no pair and gives {}.
    """
    deltas = _increments_at(block, 0.0, block.grid.horizon_T)
    return _pair_estimates(deltas, 1, len(deltas))


def martingale_residual(
    block: SampleBlock,
    s: float,
    t: float,
    conditioning: Sequence[float] = (),
) -> list[Estimate]:
    """Estimate E[phi(history) * Delta] for each component's increment
    over (s, t), in component order.

    phi is the tanh product over the ``conditioning`` times
    (nondecreasing, at most s); no times means phi = 1.
    """
    deltas = _increments_at(block, s, t)
    deltas *= _phi_values(block, conditioning, s)[:, None]
    return _estimates(deltas, len(deltas))


# Elements of one component that quadratic_variation reduces at once, in
# whole rows: its working memory (the squared increments, _exact_sum's two
# copies and its partials per row) is bounded by the chunk, not the block.
QV_CHUNK_ELEMENTS = 2**18


def quadratic_variation(block: SampleBlock) -> np.ndarray:
    """Per-replication sums of squared increments over the block's grid:
    the (replications, dimension) array of each row's QV per component."""
    replications, dimension, times = block.values.shape
    rows = max(1, QV_CHUNK_ELEMENTS // (times - 1))
    qvs = np.empty((replications, dimension))
    # each row is its own lane, summed exactly, so chunks of whole rows keep every bit;
    # one reduction per component: the extraction runs until its worst lane is done
    for start in range(0, replications, rows):
        chunk = block.values[start:start + rows]
        for c in range(dimension):
            qvs[start:start + rows, c] = _exact_sum(np.diff(chunk[:, c], axis=1) ** 2, axis=1)
    return qvs


def fourth_moment_ratio(block: SampleBlock, s: float, t: float) -> list[Estimate]:
    """Estimate E[Delta^4] / (t - s)^2 for each component's increment,
    in component order.

    The tightness bound asserts this is bounded uniformly in epsilon;
    the Gaussian limit pins it near 3.
    """
    ratios = _increments_at(block, s, t) ** 4
    ratios /= (t - s) ** 2
    return _estimates(ratios, len(ratios))


# The Cephes library's standard normal CDF, ndtr (S. L. Moshier, Methods
# and Programs for Mathematical Functions, 1989): its constants, and its
# polynomials' coefficients from the highest power down. Q, S and U are
# monic, their leading 1.0 written out.
_SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def _polevl(x: np.ndarray, coef: Sequence[float]) -> np.ndarray:
    """Cephes polevl (and p1evl, whose leading 1.0 multiplies exactly):
    Horner's rule from the highest coefficient, in one array."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| <= 1: x T(x^2) / U(x^2)."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF, bit for bit the Cephes C routine: its
    steps on numpy arrays, with libm's exp (math.exp) per value, since
    numpy's vectorised exp need not round as libm's does."""
    x = np.asarray(a, dtype=np.float64) * _SQRTH
    z = np.abs(x)
    y = np.full_like(x, np.nan)  # NaN fails every comparison below
    # erf once, for every z < 1: y is 0.5 + 0.5 erf(x) below sqrt(1/2),
    # and the erfc branch below overwrites the rest
    inner = z < 1.0
    erf = _erf(x[inner])
    y[inner] = 0.5 + 0.5 * erf

    # erfc(z) for z >= sqrt(1/2): 1 - erf(z) below 1, where erf(z) is
    # |erf(x)| bit for bit since x T(x^2) / U(x^2) is odd; then exp(-z^2)
    # times P/Q below 8 and R/S above, and zero once -z^2 < -MAXLOG
    big = np.flatnonzero(z >= _SQRTH)
    zb = z[big]
    with np.errstate(over="ignore"):
        w = -zb * zb
    erfc = np.zeros_like(zb)
    near = zb < 1.0
    erfc[near] = 1.0 - np.abs(erf[z[inner] >= _SQRTH])
    mid = ~near & (zb < 8.0)
    far = (zb >= 8.0) & (w >= -_MAXLOG)
    for part, num, den in ((mid, _ERFC_P, _ERFC_Q), (far, _ERFC_R, _ERFC_S)):
        e = np.fromiter(map(math.exp, w[part].tolist()), np.float64)
        erfc[part] = e * _polevl(zb[part], num) / _polevl(zb[part], den)
    half = 0.5 * erfc
    y[big] = np.where(x[big] > 0, 1.0 - half, half)
    return y


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
    if xs.size < NORMALITY_MIN_VALUES:
        raise ValueError(f"need at least {NORMALITY_MIN_VALUES} values, got {xs.size}")
    n = xs.size
    mean = _exact_sum(xs) / n
    var = _exact_sum((xs - mean) ** 2) / n
    if var <= 0.0:
        raise DegenerateSampleError("degenerate input: zero variance")
    z = (xs - mean) / math.sqrt(var)
    m3 = _exact_sum(z**3) / n
    m4 = _exact_sum(z**4) / n

    zs = np.sort(z)
    cdf = _ndtr(zs)
    hi = np.arange(1, n + 1) / n - cdf
    lo = cdf - np.arange(0, n) / n
    d = float(max(hi.max(), lo.max()))
    return NormalityReport(
        skewness=float(m3), excess_kurtosis=float(m4 - 3.0), ks_statistic=d
    )


def stroock_variance_check(block: SampleBlock) -> Estimate:
    """Empirical variance at the horizon T of the angle-pi cosine component.

    The unrescaled component targets 2T; with the 1/sqrt(2) rescale the
    target is T. Errors out when the configuration has no angle-pi
    cosine component.
    """
    pi_components = block.config.pi_components
    if not pi_components:
        raise ValueError("no angle-pi cosine component in this configuration")
    x = block.at_time(block.grid.horizon_T)[:, pi_components[0]]
    centered = x - _exact_sum(x) / len(x)
    return _estimates((centered * centered)[:, None], len(x) - 1)[0]


def _envelope_factor(label: str, angle_value: float) -> float:
    """decay_factor(angle_value), refused with :class:`DegeneratePairError`
    when the angle lies within TAU_THETA of a multiple of 2*pi."""
    if abs(math.remainder(angle_value, TWO_PI)) <= TAU_THETA:
        raise DegeneratePairError(
            f"envelope factor for {label} is degenerate: "
            f"angle {angle_value!r} is within {TAU_THETA} of a multiple of 2*pi"
        )
    return decay_factor(angle_value)


def _combined(a: Angle, b: Angle, sign: int) -> float:
    """a + sign * b in radians. Where that float leaves the float range,
    an angle congruent to it mod 2*pi: the exact sum of two rational
    multiples of pi mod 2, times pi, else the sum of each angle's remainder."""
    value = a.radians + sign * b.radians
    if math.isfinite(value):
        return value
    if a.pi_fraction is not None and b.pi_fraction is not None:
        return float((a.pi_fraction + sign * b.pi_fraction) % 2) * math.pi
    return math.remainder(a.radians, TWO_PI) + sign * math.remainder(b.radians, TWO_PI)


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
    a_i, a_j = parse_angle(theta_i), parse_angle(theta_j)

    d_i = _envelope_factor("theta_i", a_i.radians)
    d_j = _envelope_factor("theta_j", a_j.radians)
    d_diff = _envelope_factor("theta_i - theta_j", _combined(a_i, a_j, -1))
    d_sum = _envelope_factor("theta_i + theta_j", _combined(a_i, a_j, 1))

    factors = (
        (1.0 / d_j) * (1.0 / d_diff),
        (1.0 / d_j) * (1.0 / d_sum),
        (1.0 / d_i) * (1.0 / d_diff),
        (1.0 / d_i) * (1.0 / d_sum),
    )
    return (epsilon * epsilon) * math.fsum(factors)


def rate_fit(epsilons: Sequence[float], magnitudes: Sequence[float]) -> float:
    """Least-squares slope of log(magnitude) against log(epsilon).

    The caller floors each magnitude, |estimate| at its standard error:
    once the true moment falls below Monte Carlo resolution the raw
    magnitude is pure noise and would corrupt the fit.
    """
    eps = np.asarray(epsilons, dtype=np.float64)
    vals = np.asarray(magnitudes, dtype=np.float64)
    if eps.size < RATE_MIN_EPS_COUNT:
        raise ValueError(f"need at least {RATE_MIN_EPS_COUNT} epsilon values")
    if eps.size != vals.size:
        raise ValueError("epsilons and magnitudes must have equal length")
    if np.any(eps <= 0):
        raise ValueError("epsilons must be positive")
    if np.any(np.diff(eps) >= 0):
        raise ValueError("epsilons must be strictly decreasing")
    if eps[0] / eps[-1] < RATE_MIN_SPREAD:
        raise ValueError(
            f"epsilon range too narrow for a rate fit (need a factor >= {RATE_MIN_SPREAD:g})"
        )
    if np.any(vals <= 0):
        raise ValueError("magnitudes must be positive")
    slope, _ = np.polyfit(np.log(eps), np.log(vals), 1)
    return float(slope)
