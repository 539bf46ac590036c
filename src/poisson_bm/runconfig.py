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

Only the output directory and the worker count may be overridden from
the environment (POISSON_BM_OUTPUT_DIR, POISSON_BM_WORKERS).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

from .angles import ThetaConfig
from .process import HORIZON_CAP, map_to_path_time

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
        if needed > HORIZON_CAP:
            raise ConfigError(
                f"resource cap exceeded: 2*T/min(eps)^2 = {needed:.6g} "
                f"is above the cap {HORIZON_CAP:.0e}"
            )
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
        if CHECK_STROOCK in checks and not any(a.is_pi for a in self.theta.cos_block):
            raise ConfigError(
                "the stroock check needs an angle-pi cosine component; "
                "add pi to cos_block or drop the check"
            )

    @property
    def resolved_checks(self) -> tuple[str, ...]:
        """Expand "default" to the standard bundle, in canonical order.

        The angle-pi variance check only enters the default bundle when
        the cosine block actually contains pi.
        """
        if "default" in self.checks:
            has_pi = any(a.is_pi for a in self.theta.cos_block)
            names = [c for c in ALL_CHECKS if c != CHECK_STROOCK or has_pi]
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


_REQUIRED_KEYS = {"epsilons", "replications_M", "master_seed"}
_KNOWN_KEYS = _REQUIRED_KEYS | {
    "cos_block",
    "sin_block",
    "allow_pi_in_cos",
    "horizon_T",
    "grid_points",
    "checks",
    "output_dir",
    "workers",
    "allow_invalid_theta",
}

_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected true/false, got {raw!r}") from None


def _parse_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat key = value format into a validated RunConfig."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()

    missing = sorted(_REQUIRED_KEYS - entries.keys())
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if not entries.get("cos_block") and not entries.get("sin_block"):
        raise ConfigError("at least one of cos_block / sin_block must be nonempty")

    try:
        theta = ThetaConfig(
            cos_block=_parse_list(entries.get("cos_block", "")),
            sin_block=_parse_list(entries.get("sin_block", "")),
            allow_pi_in_cos=_parse_bool("allow_pi_in_cos", entries["allow_pi_in_cos"])
            if "allow_pi_in_cos" in entries
            else False,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    def _float(key: str, default: float | None = None) -> float:
        if key not in entries:
            assert default is not None
            return default
        try:
            return float(entries[key])
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {entries[key]!r}") from None

    def _int(key: str, default: int | None = None) -> int:
        if key not in entries:
            assert default is not None
            return default
        try:
            return int(entries[key])
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {entries[key]!r}") from None

    try:
        epsilons = tuple(float(e) for e in _parse_list(entries["epsilons"]))
    except ValueError:
        raise ConfigError(f"epsilons: could not parse {entries['epsilons']!r}") from None

    checks = tuple(_parse_list(entries["checks"])) if "checks" in entries else ("default",)

    return RunConfig(
        theta=theta,
        epsilons=epsilons,
        replications_M=_int("replications_M"),
        master_seed=_int("master_seed"),
        horizon_T=_float("horizon_T", 1.0),
        grid_points=_int("grid_points", 64),
        checks=checks,
        output_dir=Path(entries.get("output_dir", "runs")),
        workers=_int("workers", 1),
        allow_invalid_theta=_parse_bool(
            "allow_invalid_theta", entries.get("allow_invalid_theta", "false")
        ),
    )


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return apply_env_overrides(parse_config_text(text))


def apply_env_overrides(config: RunConfig) -> RunConfig:
    """Apply the two supported environment overrides, if set."""
    out = config
    env_dir = os.environ.get(ENV_OUTPUT_DIR)
    if env_dir:
        out = replace(out, output_dir=Path(env_dir))
    env_workers = os.environ.get(ENV_WORKERS)
    if env_workers:
        try:
            out = replace(out, workers=int(env_workers))
        except ValueError:
            raise ConfigError(f"{ENV_WORKERS}: expected an integer, got {env_workers!r}") from None
    return out
