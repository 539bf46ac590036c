"""Run configuration: flat key = value text files and their validation.

The format is deliberately line-based and dependency-free: UTF-8 (a
leading byte-order mark is ignored), one ``key = value`` per line,
``#`` starts a comment, lists are comma-separated. Angles accept
decimal radians or the exact rational form "p/q pi".

Example::

    cos_block = 1/2 pi, 2.2
    sin_block = 1/2 pi, 1.1
    epsilons = 0.2, 0.1
    replications_M = 1000
    master_seed = 12345
    output_dir = runs/demo

``RunConfig`` is the schema: its fields without a default are the
required keys, and a key the file leaves out takes the field's default.
A value that does not parse is reported with its line, key and value.
Check names, what each check needs of the config and the "default"
bundle come from ``runner.CHECKS``, in its order: an empty check list,
a named check the config cannot feed, and "default" listed with check
names are rejected. ``RunConfig.admissibility`` refuses an
inadmissible angle vector unless ``allow_invalid_theta`` is set.

Only the output directory and the worker count may be overridden from
the environment (POISSON_BM_OUTPUT_DIR, POISSON_BM_WORKERS); their
values are parsed as the file's would be.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Callable

from .angles import (
    PI_DENOMINATOR_MAX,
    Angle,
    HypothesisReport,
    ThetaConfig,
    _as_flag,
    _is_real,
    parse_angle,
    validate_hypothesis_h,
)
from .process import EvaluationGrid, check_block_memory, path_horizon
from .runner import CHECKS

ENV_OUTPUT_DIR = "POISSON_BM_OUTPUT_DIR"
ENV_WORKERS = "POISSON_BM_WORKERS"

class ConfigError(ValueError):
    """A run configuration is unusable (parse failure or invariant breach)."""


def _as_real(name: str, value: object) -> float:
    """``value`` as a ``float``, as report.json echoes it: a real number
    (``_is_real``), not a string; anything else is refused, naming the field."""
    if _is_real(value):
        try:
            return float(value)
        except OverflowError:  # an integer beyond float's range: validate refuses it
            return math.inf if value > 0 else -math.inf
    raise ConfigError(f"{name} must be a real number, got {value!r}")


class InvalidThetaError(ConfigError):
    """Raised when an inadmissible angle vector is run without the override."""

    def __init__(self, message: str, hypothesis: dict):
        super().__init__(message)
        self.hypothesis = hypothesis


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
        try:
            epsilons = tuple(self.epsilons)
        except TypeError:
            raise ConfigError(f"epsilons must be a sequence of real numbers, "
                              f"got {self.epsilons!r}") from None
        object.__setattr__(self, "epsilons",
                           tuple(_as_real(f"epsilons[{k}]", e) for k, e in enumerate(epsilons)))
        object.__setattr__(self, "horizon_T", _as_real("horizon_T", self.horizon_T))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if isinstance(self.checks, str):  # a sequence of characters, not of names
            raise ConfigError(f"checks must be a sequence of check names, got {self.checks!r}")
        object.__setattr__(self, "checks", tuple(self.checks))
        for name in ("replications_M", "grid_points", "master_seed", "workers"):
            value = getattr(self, name)
            try:  # a plain int, as report.json echoes it
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        try:  # a plain bool, as report.json echoes it
            flag = _as_flag("allow_invalid_theta", self.allow_invalid_theta)
            object.__setattr__(self, "allow_invalid_theta", flag)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.validate()

    def validate(self) -> None:
        """The rules about the config as a whole; the grid and each epsilon's
        path are refused where they are made, by ``EvaluationGrid`` and
        ``path_horizon``, and the block by ``check_block_memory``."""
        if not self.epsilons:
            raise ConfigError("epsilons must be nonempty")
        if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigError("epsilons must be strictly decreasing")
        if self.replications_M < 2:
            raise ConfigError("replications_M must be at least 2")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        d = self.theta.dimension
        try:
            grid = self.grid
            for epsilon in self.epsilons:
                path_horizon(self.horizon_T, epsilon, d)
            check_block_memory(self.replications_M, d, len(grid))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.checks:
            raise ConfigError("checks must be nonempty: list check names or default")
        unknown = [c for c in self.checks if c != "default" and c not in CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks: {', '.join(unknown)}")
        if "default" in self.checks and len(set(self.checks)) > 1:
            raise ConfigError("checks: default cannot be mixed with check names; "
                              "list check names or default alone")
        for name in self.resolved_checks:
            if not CHECKS[name].fed(self):
                _, need, fix = CHECKS[name].need
                raise ConfigError(f"the {name} check needs {need}; {fix} or drop the check")

    @property
    def grid(self) -> EvaluationGrid:
        """The run's grid: ``grid_points`` uniform steps from 0 to ``horizon_T``."""
        return EvaluationGrid(self.horizon_T, self.grid_points)

    @property
    def resolved_checks(self) -> tuple[str, ...]:
        """The requested checks in table order; "default" is every check
        but those the config cannot feed whose row drops them."""
        if "default" in self.checks:
            return tuple(name for name, check in CHECKS.items()
                         if check.fed(self) or not check.default_drops_unfed)
        return tuple(name for name in CHECKS if name in self.checks)

    def admissibility(self) -> HypothesisReport:
        """The angle vector's admissibility report. An inadmissible vector
        is refused, with the report, unless allow_invalid_theta is set
        (the counterexample mode)."""
        hypothesis = validate_hypothesis_h(self.theta)
        if not hypothesis.valid and not self.allow_invalid_theta:
            raise InvalidThetaError(
                "angle vector fails the admissibility conditions "
                "(set allow_invalid_theta = true to run it as a counterexample): "
                + "; ".join(f"{v.rule}{v.indices}" for v in hypothesis.violations),
                hypothesis.to_dict(),
            )
        return hypothesis

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


class _ItemError(ValueError):
    """One item of a list value refused for its own reason, which names
    the item and its 1-based position."""


def _parse_angles(raw: str) -> tuple[Angle, ...]:
    items = _parse_list(raw)
    angles = []
    for k, item in enumerate(items, start=1):
        try:
            angles.append(parse_angle(item))
        except ValueError as exc:
            raise _ItemError(f"angle {k} of {len(items)}: {exc}") from None
    return tuple(angles)


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in _BOOL_VALUES:
        raise ValueError(raw)
    return _BOOL_VALUES[raw.lower()]


_ANGLES = f"angles in radians or 'p/q pi' (q at most {PI_DENOMINATOR_MAX}, within a float's range)"

# file key -> (parser of its value, what the parser expects)
_PARSERS: dict[str, tuple[Callable[[str], object], str]] = {
    "cos_block": (_parse_angles, _ANGLES),
    "sin_block": (_parse_angles, _ANGLES),
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
    except _ItemError as exc:
        raise ConfigError(f"{where}: expected {expected}; {exc}") from None
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
        text = p.read_text(encoding="utf-8-sig")
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
