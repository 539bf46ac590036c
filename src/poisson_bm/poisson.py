"""Unit-rate Poisson paths and exact integrals of cos/sin of the count.

A path is the sorted sequence of jump times on [0, horizon]; the count
N_x is piecewise constant between jumps, so integrals of cos(theta*N_x)
and sin(theta*N_x) over any interval reduce to finite sums of
level-value times segment-length terms. No quadrature is involved; the
only error is floating-point rounding.

Phase arguments theta*k reach ~1e7 over the supported horizon range, so
they are reduced mod 2*pi in extended precision before the trig call.
For angles given as exact rational multiples of pi the reduction is done
in integer arithmetic instead, which additionally makes the values for
theta and 2*pi - theta bitwise equal (cos) or bitwise opposite (sin);
the degenerate-pair identities then hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import Angle, parse_angle

# 2*pi to long-double precision (parsed from the digit string, not widened
# from the float64 value).
_TWO_PI_LD = np.longdouble("6.283185307179586476925286766559005768394")

_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True, eq=False)
class PoissonPath:
    """One realization of a unit-rate Poisson process on [0, horizon]."""

    horizon: float
    jump_times: np.ndarray

    def __post_init__(self) -> None:
        if self.horizon < 0 or not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite and >= 0, got {self.horizon}")
        jt = np.asarray(self.jump_times, dtype=np.float64)
        object.__setattr__(self, "jump_times", jt)
        if jt.ndim != 1:
            raise ValueError("jump_times must be one-dimensional")
        if jt.size:
            if jt[0] <= 0.0 or jt[-1] > self.horizon:
                raise ValueError("jump times must lie in (0, horizon]")
            if np.count_nonzero(jt[1:] <= jt[:-1]):
                raise ValueError("jump times must be strictly increasing")

    @classmethod
    def _unchecked(cls, horizon: float, jump_times: np.ndarray) -> "PoissonPath":
        """A path built without ``__post_init__``'s checks.

        For ``sample_poisson_path`` only, whose output already holds what
        they check: a finite float horizon >= 0 and a one-dimensional
        float64 array, strictly increasing in (0, horizon].
        """
        path = object.__new__(cls)
        path.__dict__.update(horizon=horizon, jump_times=jump_times)
        return path


def _first_block_size(horizon: float) -> int:
    """Uniforms in ``sample_poisson_path``'s first block at ``horizon``.

    The block covers the expected count plus a generous tail, so almost
    every path ends in it and has at most this many jumps.
    """
    return max(16, int(horizon + 4.0 * math.sqrt(horizon) + 16.0))


def sample_poisson_path(horizon: float, stream: np.random.Generator) -> PoissonPath:
    """Draw a path by accumulating unit-mean exponential interarrivals.

    Interarrivals are -log(U) with U uniform (inverse CDF), so the path
    is a pure function of the stream's uniform output. The same stream
    state and horizon always reproduce the same path.

    Each block of uniforms is turned into jump times in place (guard,
    log, negate, running sum, then the offset of the earlier blocks),
    and the times past the horizon are cut with one ``searchsorted``:
    the times never decrease, so the cut keeps exactly the times
    <= horizon.

    A path that ends in its first block, whose every interarrival is at
    least one ulp of the horizon, is returned as cut: no two of its times
    can tie, since t + x >= t + ulp(t) for every kept time t <= horizon.
    At horizon 0 every time lies beyond it, and the path is empty.
    """
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")

    parts: list[np.ndarray] = []
    t = 0.0
    block = _first_block_size(horizon)
    while True:
        times = stream.random(block)
        np.maximum(times, _TINY, out=times)  # guard U == 0.0
        np.log(times, out=times)
        np.negative(times, out=times)
        # the first block's smallest interarrival; a path that needs a later
        # block always takes the tie scan
        gap = np.minimum.reduce(times) if not parts else 0.0
        np.add.accumulate(times, out=times)
        if t != 0.0:  # 0.0 + x == x, so the first block needs no offset
            times += t
        if times[-1] > horizon:
            # the method skips np.searchsorted's dispatch, a fixed cost per path
            cut = times[: times.searchsorted(horizon, side="right")]
            if gap >= math.ulp(horizon):
                return PoissonPath._unchecked(float(horizon), cut)
            parts.append(cut)
            break
        parts.append(times)
        t = float(times[-1])
        block = max(16, block // 4)

    jumps = parts[0] if len(parts) == 1 else np.concatenate(parts)
    # cumsum rounding can in principle produce a tied pair once gaps fall
    # below one ulp of the running time; bump such ties by one ulp
    while jumps.size > 1 and np.count_nonzero(ties := jumps[1:] <= jumps[:-1]):
        for k in np.flatnonzero(ties):
            jumps[k + 1] = np.nextafter(jumps[k], np.inf)
        jumps = jumps[jumps <= horizon]
    # every interarrival -log(U), U < 1, is > 0, the cut keeps the times
    # <= horizon and the loop above leaves no ties: PoissonPath's checks hold
    return PoissonPath._unchecked(float(horizon), jumps)


def _level_values(
    theta: Angle | float, n_levels: int, kind: str, start: int = 0
) -> np.ndarray:
    """trig(theta * k) for k = start .. n_levels-1, with careful phase reduction.

    Each value depends on k alone, so a slice from ``start`` equals the
    same slice of the levels from 0, bit for bit. No value is -0.0.
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    ang = parse_angle(theta)

    if ang.pi_fraction is not None:
        # phase = (p*k mod 2q) * pi/q, reduced exactly in integers (p and k
        # mod 2q first: see PI_DENOMINATOR_MAX), then folded onto [0, q]
        # so theta and 2*pi - theta share trig values
        q = ang.pi_fraction.denominator
        k = np.arange(start, n_levels, dtype=np.int64) % (2 * q)
        m = (ang.pi_fraction.numerator % (2 * q) * k) % (2 * q)
        folded = np.minimum(m, 2 * q - m)
        phases = folded * (math.pi / q)
        if kind == "cos":
            return np.cos(phases)
        vals = np.sin(phases)
        vals[(m == 0) | (m == q)] = 0.0  # sin of an exact multiple of pi
        vals[m > q] = -vals[m > q]
        return vals

    k = np.arange(start, n_levels, dtype=np.float64)
    ph_ld = np.mod(np.longdouble(ang.radians) * k.astype(np.longdouble), _TWO_PI_LD)
    phases = np.asarray(ph_ld, dtype=np.float64)
    return np.cos(phases) if kind == "cos" else np.sin(phases)


def integral_from_zero(
    path: PoissonPath, theta: Angle | float, kind: str, xs: np.ndarray
) -> np.ndarray:
    """Integral of trig(theta * N) over [0, x] for each x in ``xs``.

    Accumulates segment areas with a running prefix sum over the path's
    jump segments, one component at a time. It is the per-component
    reference: ``build_sample`` runs the same steps for all components
    at once, and the bit-identity tests compare it against this routine.
    """
    xs = np.asarray(xs, dtype=np.float64)
    jumps = path.jump_times
    vals = _level_values(theta, jumps.size + 1, kind)
    if jumps.size == 0:
        return vals[0] * xs
    widths = np.diff(np.concatenate((np.zeros(1), jumps)))
    prefix = np.concatenate((np.zeros(1), np.cumsum(vals[:-1] * widths)))
    j = np.searchsorted(jumps, xs, side="right")
    base = np.where(j > 0, jumps[np.maximum(j - 1, 0)], 0.0)
    return prefix[j] + vals[j] * (xs - base)


def decay_factor(theta: float | Angle) -> float:
    """1 - cos(theta), the exponential decay rate behind every envelope factor.

    Zero exactly when theta is a multiple of 2*pi; callers must treat a
    zero (or near-zero) factor as a degenerate pair.
    """
    return 1.0 - math.cos(parse_angle(theta).radians)
