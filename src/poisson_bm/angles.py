"""Angle-vector configuration and admissibility validation.

The simulated process has one coordinate per angle: a cosine block of n
angles and a sine block of m angles, all driven by the same Poisson path.
A configuration is admissible when

  * every angle lies in (0, pi) union (pi, 2*pi),
  * no two angles (same or different block, including an angle with
    itself) sum to 2*pi,
  * no two angles inside the same block are equal.

Equal angles across the two blocks are allowed; that is the complex
Brownian-motion pairing. The single exception to the range rule is an
angle of exactly pi in the cosine block, which is legal when
``allow_pi_in_cos`` is set and the component is rescaled by 1/sqrt(2)
downstream.

Angles can be given as decimal radians or as exact rational multiples of
pi ("1/2 pi"). Rational inputs are kept symbolically so the sum and
equality tests above are exact for them; decimal inputs are compared with
the absolute tolerance ``TAU_THETA``.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# Tolerance for angle equality and the 2*pi-sum test, in radians. Angles
# closer than this to a degenerate configuration would produce envelope
# factors 1/(1 - cos(.)) beyond ~1e23, which is numerically meaningless.
TAU_THETA = 1e-12

TWO_PI = 2.0 * math.pi

# The largest denominator q of a rational angle (p/q) pi. Its levels reduce
# p * k mod 2q with p and k each reduced mod 2q first, so every product is
# below (2q)^2 <= 2^62: exact in int64.
PI_DENOMINATOR_MAX = 2**30

_RATIONAL_PI_RE = re.compile(
    r"^\s*(?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d+))?\s*)?(?:pi|π)\s*$", re.IGNORECASE
)

RULE_RANGE = "RANGE"
RULE_SUM_2PI = "SUM_2PI"
RULE_SAME_BLOCK_EQUAL = "SAME_BLOCK_EQUAL"


@dataclass(frozen=True)
class Angle:
    """An angle in radians, optionally carrying an exact multiple of pi.

    ``pi_fraction`` is p/q such that the angle is exactly (p/q)*pi; it is
    None for plain decimal inputs. Exactness matters both for validation
    (rational pairs are tested without tolerance) and for trig evaluation
    (phases of rational angles are reduced in integer arithmetic).
    """

    radians: float
    pi_fraction: Fraction | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.radians):
            raise ValueError(f"angle must be finite, got {self.radians!r}")
        if self.pi_fraction is not None and self.pi_fraction.denominator > PI_DENOMINATOR_MAX:
            raise ValueError(f"angle {self}: the denominator of a rational multiple of pi "
                             f"must be at most {PI_DENOMINATOR_MAX}")

    @property
    def is_pi(self) -> bool:
        if self.pi_fraction is not None:
            return self.pi_fraction == 1
        return abs(self.radians - math.pi) <= TAU_THETA

    def __str__(self) -> str:
        if self.pi_fraction is not None:
            return f"{self.pi_fraction.numerator}/{self.pi_fraction.denominator} pi"
        return repr(self.radians)


def _as_float(x: numbers.Real, angle: object) -> float:
    """float(x), or a ValueError where ``x`` lies beyond a float's range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"angle {angle!r} lies beyond a float's range "
                         f"(about 1.8e308)") from None


def parse_angle(value: numbers.Real | str | Angle) -> Angle:
    """Coerce a user-supplied angle into an :class:`Angle`.

    Strings accept decimal radians ("2.2") or rational multiples of pi
    ("1/2 pi", "pi", "3/2 pi"); anything else must already be a real
    number (``_is_real``).
    """
    if isinstance(value, Angle):
        return value
    if _is_real(value):
        return Angle(radians=_as_float(value, value))
    if isinstance(value, str):
        m = _RATIONAL_PI_RE.match(value)
        if m:
            num = int(m.group("num") or 1)
            den = int(m.group("den") or 1)
            if den == 0:
                raise ValueError(f"zero denominator in angle {value!r}")
            frac = Fraction(num, den)
            return Angle(radians=_as_float(frac, value) * math.pi, pi_fraction=frac)
        try:
            return Angle(radians=float(value))
        except ValueError:
            raise ValueError(
                f"cannot parse angle {value!r}; use decimal radians or 'p/q pi'"
            ) from None
    raise TypeError(f"unsupported angle type {type(value).__name__}")


@dataclass(frozen=True)
class Violation:
    """One admissibility failure: rule id, 1-based positions, offending values."""

    rule: str
    indices: tuple[int, ...]
    values: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"rule": self.rule, "indices": list(self.indices), "values": list(self.values)}


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of admissibility validation.

    ``violations`` lists every failed check, not just the first; the
    vector is ``valid`` when that list is empty. Index
    positions are 1-based into the concatenated vector (cosine block
    first). ``pi_rescaled_indices`` are the 1-based cosine-block positions
    holding an allowed angle pi, i.e. the components that must be scaled
    by 1/sqrt(2).
    """

    violations: tuple[Violation, ...]
    pi_rescaled_indices: tuple[int, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [v.to_dict() for v in self.violations],
            "pi_rescaled_indices": list(self.pi_rescaled_indices),
        }


def _is_real(value: object) -> bool:
    """Whether ``value`` is a real number, Python's or numpy's: a
    ``numbers.Real`` that is not a ``bool`` (a flag is not a number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_flag(name: str, value: object) -> bool:
    """``value`` as a ``bool``: only ``True`` and ``False``, Python's or
    numpy's, are flags; anything else (the string "false" is truthy) is
    refused, naming the field."""
    import numpy as np  # the package has loaded it already; this module needs it only here

    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be True or False, got {value!r}")


@dataclass(frozen=True)
class ThetaConfig:
    """The angle vector: cosine block, sine block, and the pi-rescale flag."""

    cos_block: tuple[Angle, ...]
    sin_block: tuple[Angle, ...]
    allow_pi_in_cos: bool = False

    def __init__(
        self,
        cos_block: Sequence[float | str | Angle] = (),
        sin_block: Sequence[float | str | Angle] = (),
        allow_pi_in_cos: bool = False,
    ) -> None:
        for name, block in (("cos_block", cos_block), ("sin_block", sin_block)):
            if isinstance(block, str):  # a sequence of characters, not of angles
                raise ValueError(f"{name} must be a sequence of angles, got {block!r}")
            object.__setattr__(self, name, tuple(parse_angle(a) for a in block))
        object.__setattr__(self, "allow_pi_in_cos", _as_flag("allow_pi_in_cos", allow_pi_in_cos))
        if self.dimension == 0:
            raise ValueError("empty configuration: no process components requested")

    @property
    def n(self) -> int:
        return len(self.cos_block)

    @property
    def m(self) -> int:
        return len(self.sin_block)

    @property
    def dimension(self) -> int:
        return self.n + self.m

    @property
    def angles(self) -> tuple[Angle, ...]:
        return self.cos_block + self.sin_block

    def component_kind(self, index: int) -> str:
        """Trig kind ('cos' or 'sin') of the 0-based component ``index``."""
        if not 0 <= index < self.dimension:
            raise IndexError(f"component {index} out of range for dimension {self.dimension}")
        return "cos" if index < self.n else "sin"

    @property
    def pi_components(self) -> tuple[int, ...]:
        """0-based positions of the angle-pi cosines, whatever ``allow_pi_in_cos``
        says: the components that ``stroock`` reads and, with the flag set,
        that are rescaled by 1/sqrt(2)."""
        return tuple(i for i, a in enumerate(self.cos_block) if a.is_pi)

    @property
    def pi_rescaled_indices(self) -> tuple[int, ...]:
        """1-based positions of ``pi_components`` when ``allow_pi_in_cos`` is
        set (the components rescaled by 1/sqrt(2)), else ()."""
        if not self.allow_pi_in_cos:
            return ()
        return tuple(i + 1 for i in self.pi_components)

    def to_dict(self) -> dict:
        return {
            "cos_block": [str(a) for a in self.cos_block],
            "sin_block": [str(a) for a in self.sin_block],
            "allow_pi_in_cos": self.allow_pi_in_cos,
        }


def _pair_sums_to_2pi(a: Angle, b: Angle) -> bool:
    if a.pi_fraction is not None and b.pi_fraction is not None:
        return a.pi_fraction + b.pi_fraction == 2
    return abs(a.radians + b.radians - TWO_PI) <= TAU_THETA


def _pair_equal(a: Angle, b: Angle) -> bool:
    if a.pi_fraction is not None and b.pi_fraction is not None:
        return a.pi_fraction == b.pi_fraction
    return abs(a.radians - b.radians) <= TAU_THETA


def _in_range(a: Angle) -> bool:
    if a.pi_fraction is not None:
        return 0 < a.pi_fraction < 2 and a.pi_fraction != 1
    return TAU_THETA < a.radians < TWO_PI - TAU_THETA and abs(a.radians - math.pi) > TAU_THETA


def validate_hypothesis_h(config: ThetaConfig) -> HypothesisReport:
    """Check the three admissibility conditions and report every failure.

    Positions in the returned violations are 1-based over the
    concatenated vector (cosine block first, then sine block). An angle
    of pi in the cosine block is accepted, at most once, when
    ``allow_pi_in_cos`` is set; pi in the sine block is always a RANGE
    violation because the sine component would be identically zero.
    """
    angles = config.angles
    n = config.n
    rescaled = set(config.pi_rescaled_indices)

    # one walk over the pairs i <= j appends in (indices, rule) order: (i,),
    # (i, i), then (i, j) for j > i, SAME_BLOCK_EQUAL before SUM_2PI
    violations: list[Violation] = []
    for i, a in enumerate(angles, start=1):
        if not (_in_range(a) or i in rescaled):
            violations.append(Violation(RULE_RANGE, (i,), (a.radians,)))
        for j, b in enumerate(angles[i - 1:], start=i):
            if j > i and (i <= n) == (j <= n) and _pair_equal(a, b):
                violations.append(
                    Violation(RULE_SAME_BLOCK_EQUAL, (i, j), (a.radians, b.radians)))
            # the allowed pi would trip the self-pair sum; exempt it
            if not (i == j and i in rescaled) and _pair_sums_to_2pi(a, b):
                violations.append(Violation(RULE_SUM_2PI, (i, j), (a.radians, b.radians)))

    return HypothesisReport(
        violations=tuple(violations),
        pi_rescaled_indices=config.pi_rescaled_indices,
    )
