"""Run configuration: flat key = value text files and their validation.

The format is deliberately line-based and dependency-free: UTF-8,
one ``key = value`` per line, ``#`` starts a comment, lists are
comma-separated. Angles accept decimal radians or the exact rational
form "p/q pi".

Example::

    cos_block = 1/2 pi, 2.2
    sin_block = 1/2 pi, 1.1
    epsilons = 0.2, 0.1
    replications_M = 1000
    master_seed = 12345
    output_dir = runs/demo

``RunConfig`` is the schema: its fields without a default are the
required keys, and a key the file leaves out takes the field's default.
A value that does not parse is reported with its line, key and value;
an empty check list, or cross moments of a single component, is
rejected, since it would pass vacuously.

Only the output directory and the worker count may be overridden from
the environment (POISSON_BM_OUTPUT_DIR, POISSON_BM_WORKERS); their
values are parsed as the file's would be.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Callable

from .angles import Angle, ThetaConfig, parse_angle
from .process import check_replication_memory, map_to_path_time

ENV_OUTPUT_DIR = "POISSON_BM_OUTPUT_DIR"
ENV_WORKERS = "POISSON_BM_WORKERS"

CHECK_COVARIANCE = "covariance"
CHECK_QV = "quadratic_variation"
CHECK_CROSS_MOMENTS = "cross_moments"
CHECK_FOURTH_MOMENT = "fourth_moment"
CHECK_NORMALITY = "normality"
CHECK_MARTINGALE = "martingale"
CHECK_STROOCK = "stroock"

# canonical ordering for report emission
ALL_CHECKS = (
    CHECK_COVARIANCE,
    CHECK_QV,
    CHECK_CROSS_MOMENTS,
    CHECK_FOURTH_MOMENT,
    CHECK_NORMALITY,
    CHECK_MARTINGALE,
    CHECK_STROOCK,
)


class ConfigError(ValueError):
    """A run configuration is unusable (parse failure or invariant breach)."""


@dataclass(frozen=True)
class RunConfig:
    theta: ThetaConfig
    epsilons: tuple[float, ...]
    replications_M: int
    master_seed: int
    horizon_T: float = 1.0
    grid_points: int = 64
    checks: tuple[str, ...] = ("default",)
    output_dir: Path = Path("runs")
    workers: int = 1
    allow_invalid_theta: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        object.__setattr__(self, "checks", tuple(self.checks))
        self.validate()

    def validate(self) -> None:
        if not self.epsilons:
            raise ConfigError("epsilons must be nonempty")
        if any(not 0.0 < e <= 1.0 for e in self.epsilons):
            raise ConfigError("every epsilon must lie in (0, 1]")
        if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigError("epsilons must be strictly decreasing")
        if self.replications_M < 2:
            raise ConfigError("replications_M must be at least 2")
        if self.grid_points < 1:
            raise ConfigError("grid_points must be positive")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if not self.horizon_T > 0:
            raise ConfigError("horizon_T must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        needed = map_to_path_time(self.horizon_T, min(self.epsilons))
        try:
            check_replication_memory(needed, self.theta.dimension)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.checks:
            raise ConfigError("checks must be nonempty: list check names or default")
        unknown = [c for c in self.checks if c != "default" and c not in ALL_CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks: {', '.join(unknown)}")
        checks = self.resolved_checks
        if CHECK_NORMALITY in checks and self.replications_M < 100:
            raise ConfigError(
                "the normality check needs replications_M >= 100; "
                "raise M or drop the check"
            )
        if CHECK_MARTINGALE in checks and self.grid_points < 2:
            raise ConfigError(
                "the martingale check needs grid_points >= 2; "
                "raise grid_points or drop the check"
            )
        if CHECK_CROSS_MOMENTS in checks and self.theta.dimension < 2:
            raise ConfigError(
                "the cross_moments check needs at least 2 components; "
                "add an angle or drop the check"
            )
        if CHECK_STROOCK in checks and not any(a.is_pi for a in self.theta.cos_block):
            raise ConfigError(
                "the stroock check needs an angle-pi cosine component; "
                "add pi to cos_block or drop the check"
            )

    @property
    def resolved_checks(self) -> tuple[str, ...]:
        """Expand "default" to the standard bundle, in canonical order.

        The angle-pi variance check only enters the default bundle when
        the cosine block actually contains pi, and the cross-moment check
        only when there are at least two components.
        """
        if "default" in self.checks:
            has_pi = any(a.is_pi for a in self.theta.cos_block)
            unfed = {CHECK_STROOCK: not has_pi, CHECK_CROSS_MOMENTS: self.theta.dimension < 2}
            names = [c for c in ALL_CHECKS if not unfed.get(c)]
        else:
            names = [c for c in ALL_CHECKS if c in self.checks]
        return tuple(names)

    def echo(self) -> dict:
        """Configuration echo for the canonical report.

        Execution details (worker count, output directory) are omitted:
        reports must be byte-identical across worker counts and target
        directories.
        """
        return {
            "theta": self.theta.to_dict(),
            "horizon_T": self.horizon_T,
            "epsilons": list(self.epsilons),
            "replications_M": self.replications_M,
            "grid_points": self.grid_points,
            "master_seed": self.master_seed,
            "checks": list(self.resolved_checks),
            "allow_invalid_theta": self.allow_invalid_theta,
        }


_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _parse_angles(raw: str) -> tuple[Angle, ...]:
    return tuple(parse_angle(a) for a in _parse_list(raw))


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in _BOOL_VALUES:
        raise ValueError(raw)
    return _BOOL_VALUES[raw.lower()]


# file key -> (parser of its value, what the parser expects)
_PARSERS: dict[str, tuple[Callable[[str], object], str]] = {
    "cos_block": (_parse_angles, "angles in radians or 'p/q pi'"),
    "sin_block": (_parse_angles, "angles in radians or 'p/q pi'"),
    "allow_pi_in_cos": (_parse_bool, "true/false"),
    "horizon_T": (float, "a number"),
    "epsilons": (
        lambda raw: tuple(float(e) for e in _parse_list(raw)), "comma-separated numbers"
    ),
    "replications_M": (int, "an integer"),
    "grid_points": (int, "an integer"),
    "master_seed": (int, "an integer"),
    "checks": (lambda raw: tuple(_parse_list(raw)), "check names"),
    "output_dir": (Path, "a path"),
    "workers": (int, "an integer"),
    "allow_invalid_theta": (_parse_bool, "true/false"),
}

_THETA_KEYS = tuple(f.name for f in fields(ThetaConfig))
_REQUIRED_KEYS = {
    f.name for f in fields(RunConfig) if f.default is MISSING and f.name != "theta"
}


def _parse_value(key: str, raw: str, where: str) -> object:
    parse, expected = _PARSERS[key]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {expected}, got {raw!r}") from None


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat key = value format into a validated RunConfig."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw.strip(), f"line {lineno}: {key}")

    missing = sorted(_REQUIRED_KEYS - values.keys())
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    theta_args = {key: values.pop(key) for key in _THETA_KEYS if key in values}
    if not theta_args.get("cos_block") and not theta_args.get("sin_block"):
        raise ConfigError("at least one of cos_block / sin_block must be nonempty")
    return RunConfig(theta=ThetaConfig(**theta_args), **values)


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return apply_env_overrides(parse_config_text(text))


def apply_env_overrides(config: RunConfig) -> RunConfig:
    """Apply the two supported environment overrides, if set."""
    changes = {}
    for env, key in ((ENV_OUTPUT_DIR, "output_dir"), (ENV_WORKERS, "workers")):
        raw = os.environ.get(env)
        if raw:
            changes[key] = _parse_value(key, raw, env)
    return replace(config, **changes) if changes else config
