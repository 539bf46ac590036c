"""Independent oracles used by the test suite.

Everything here is computed by a different route than the library code
it checks: segment enumeration with exact rational phase reduction and
brute-force Riemann sums for the exact integrator, closed-form
expectations (via E[e^{i g N_u}] = exp(-u(1 - e^{i g}))) for the Monte
Carlo estimators, and the count mod m as a Markov chain for the limit
covariance of rational angles. Keep this module free of imports from
the estimator implementations beyond basic data containers.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

# pi to 50 digits, as an exact rational
_PI = Fraction("3.14159265358979323846264338327950288419716939937510")


def _trig_level(theta: float, k: int, kind: str) -> float:
    """trig(theta * k), with theta * k reduced mod 2*pi in rational arithmetic."""
    phase = Fraction(theta) * k
    phase -= 2 * _PI * math.floor(phase / (2 * _PI))
    return math.cos(phase) if kind == "cos" else math.sin(phase)


def segment_trig_integral(
    jump_times: np.ndarray, theta: float, a: float, b: float, kind: str
) -> float:
    """Integral of trig(theta * N_x) over [a, b], one term per count level.

    The count is k on [tau_k, tau_{k+1}), with tau_0 = 0 and no jump
    after the last one, so the integral is the exactly rounded sum of
    (min(b, tau_{k+1}) - max(a, tau_k)) * trig(theta * k) over the
    segments that meet [a, b].
    """
    taus = [0.0, *(float(t) for t in jump_times), math.inf]
    terms = []
    for k in range(len(taus) - 1):
        lo, hi = max(a, taus[k]), min(b, taus[k + 1])
        if hi > lo:
            terms.append((hi - lo) * _trig_level(theta, k, kind))
    return math.fsum(terms)


def riemann_trig_integral(
    jump_times: np.ndarray, theta: float, a: float, b: float, kind: str, step: float = 1e-5
) -> float:
    """Midpoint Riemann sum of trig(theta * N_x) over [a, b]."""
    n = max(1, int(math.ceil((b - a) / step)))
    h = (b - a) / n
    xs = a + (np.arange(n) + 0.5) * h
    counts = np.searchsorted(jump_times, xs, side="right")
    vals = np.cos(theta * counts) if kind == "cos" else np.sin(theta * counts)
    return float(h * np.sum(vals))


def _w(g: float) -> complex:
    return 1.0 - cmath.exp(1j * g)


def char_fn(theta: float, s: float) -> complex:
    """E[exp(i*theta*N_s)] = exp(-s*(1 - e^{i*theta})) for a unit-rate count.

    The real part is E[cos(theta*N_s)] and the imaginary part E[sin(theta*N_s)].
    """
    return cmath.exp(-s * _w(theta))


def _a0(wv: complex, ell: float) -> complex:
    # int_0^ell e^{-b w} db
    if wv == 0:
        return complex(ell)
    return (1.0 - cmath.exp(-ell * wv)) / wv


def _double_integral(g: float, d: float, L: float, U: float) -> complex:
    """int over {L <= a <= b <= U} of e^{-a w(g)} e^{-(b-a) w(d)} da db.

    Written so every exponent has a nonpositive real part (Re w >= 0),
    which keeps the evaluation stable for large L and U.
    """
    wg, wd = _w(g), _w(d)
    ell = U - L
    pref = cmath.exp(-L * wg)
    if abs(wg - wd) < 1e-12:
        if wg == 0:
            return pref * ell**2 / 2.0
        return pref * (
            -ell * cmath.exp(-ell * wg) / wg + (1.0 - cmath.exp(-ell * wg)) / wg**2
        )
    return pref * (_a0(wd, ell) - _a0(wg, ell)) / (wg - wd)


def exact_cross_moment(
    theta_1: float, theta_2: float, kind: str, s: float, t: float, eps: float
) -> float:
    """Exact E[Delta_1 * Delta_2] for increments over (s, t).

    Delta_k = eps * int_{2s/eps^2}^{2t/eps^2} trig(theta_k * N_x) dx with
    both integrals on one path. ``kind`` selects cos/cos, sin/sin or
    cos/sin (theta_1 is the cosine angle in the mixed case). Expand the
    trig product into complex exponentials, factor over independent
    increments of the count, and integrate the characteristic functions
    in closed form.
    """
    L = 2.0 * s / eps**2
    U = 2.0 * t / eps**2
    j_sum_ab = _double_integral(theta_1 + theta_2, theta_2, L, U)   # a < b
    j_diff_ab = _double_integral(theta_1 - theta_2, -theta_2, L, U)
    j_sum_ba = _double_integral(theta_1 + theta_2, theta_1, L, U)   # b < a
    j_diff_ba = _double_integral(theta_2 - theta_1, -theta_1, L, U)
    if kind == "coscos":
        v = 0.5 * (j_sum_ab + j_diff_ab + j_sum_ba + j_diff_ba).real
    elif kind == "sinsin":
        v = 0.5 * (j_diff_ab - j_sum_ab + j_diff_ba - j_sum_ba).real
    elif kind == "cossin":
        v = 0.5 * (j_sum_ab - j_diff_ab + j_sum_ba + j_diff_ba).imag
    else:
        raise ValueError(kind)
    return eps**2 * v


def exact_increment_variance(theta: float, kind: str, s: float, t: float, eps: float) -> float:
    """Exact E[Delta^2] of one component's increment over (s, t)."""
    pair = {"cos": "coscos", "sin": "sinsin"}[kind]
    return exact_cross_moment(theta, theta, pair, s, t, eps)


def exact_mean_increment(theta: float, kind: str, s: float, t: float, eps: float) -> float:
    """Exact E[Delta] of one component's increment over (s, t)."""
    L = 2.0 * s / eps**2
    U = 2.0 * t / eps**2
    wv = _w(theta)
    val = cmath.exp(-L * wv) * _a0(wv, U - L)
    return eps * (val.real if kind == "cos" else val.imag)


def exact_qv_mean(theta: float, kind: str, partition: np.ndarray, eps: float) -> float:
    """Exact E[sum of squared increments] over a partition."""
    return math.fsum(
        exact_increment_variance(theta, kind, float(a), float(b), eps)
        for a, b in zip(partition[:-1], partition[1:])
    )


@functools.lru_cache(maxsize=None)
def _fundamental_matrix(m: int) -> np.ndarray:
    """Z = (1 pi - Q)^-1 - 1 pi for the count mod m, Q = S - I with S the
    cyclic shift k -> k + 1 and pi uniform; h = Z g solves -Q h = g - pi g."""
    stationary = np.full((m, m), 1.0 / m)
    generator = np.roll(np.eye(m), 1, axis=1) - np.eye(m)
    return np.linalg.inv(stationary - generator) - stationary


def limit_covariance(config) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma, means): the limit covariance per unit time of a config whose
    angles are all rational multiples of pi, and its components' stationary means.

    Each f_i(k) = trig(theta_i * k) (times 1/sqrt(2) on a pi-rescaled row)
    depends on k only mod m = 2 lcm(q_i), and N mod m is a Markov chain
    on Z_m. Its Markov-chain CLT gives, over path time 2t/eps^2 scaled by
    eps, the covariance 2t (G + G^T) with G = F Z F^T / m, F the (d, m)
    table of f_i. The limit is standard BM exactly when Sigma = I and the
    means F 1 / m are all 0 (a nonzero mean is a drift of order 1/eps).
    """
    fractions = [a.pi_fraction for a in config.angles]
    m = 2 * math.lcm(*(f.denominator for f in fractions))
    table = np.empty((config.dimension, m))
    for c, f in enumerate(fractions):
        # theta * k mod 2 pi, reduced in integers: p k mod 2q, over q, times pi
        phase = np.pi * (np.arange(m) * f.numerator % (2 * f.denominator)) / f.denominator
        table[c] = (np.cos if config.component_kind(c) == "cos" else np.sin)(phase)
    for i in config.pi_rescaled_indices:
        table[i - 1] *= math.sqrt(0.5)
    g = table @ _fundamental_matrix(m) @ table.T / m
    return 2.0 * (g + g.T), table.sum(axis=1) / m
