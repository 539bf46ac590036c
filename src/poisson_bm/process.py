"""Assembly of the multidimensional approximant on an evaluation grid.

Component i of the process at time t is

    eps * integral over [0, 2t/eps^2] of trig(theta_i * N_x) dx,

with trig = cos for the cosine block and sin for the sine block, all
components sharing one Poisson path. That sharing is the whole point of
the construction and must not be "fixed" by sampling per-component
paths. Cosine components flagged for the angle-pi case are additionally
scaled by 1/sqrt(2).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .angles import ThetaConfig
from .poisson import PoissonPath, _level_values

# Upper bound on the rescaled horizon 2T/eps^2; runs above it would need
# gigabyte-scale paths and are refused.
HORIZON_CAP = 1.0e9

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def map_to_path_time(t: float, epsilon: float) -> float:
    """Map process time t to path time 2t/eps^2, computed in extended precision."""
    num = np.longdouble(2.0) * np.longdouble(t)
    den = np.longdouble(epsilon) * np.longdouble(epsilon)
    return float(num / den)


@dataclass(frozen=True, eq=False)
class EvaluationGrid:
    """Strictly increasing evaluation times starting at 0, within [0, T].

    ``times`` is the grid's own read-only copy, so path times computed
    from it once (see ``build_sample``) never go stale.
    """

    times: np.ndarray
    horizon_T: float

    def __post_init__(self) -> None:
        ts = np.array(self.times, dtype=np.float64)
        ts.flags.writeable = False
        object.__setattr__(self, "times", ts)
        if ts.ndim != 1 or ts.size < 1:
            raise ValueError("grid needs at least one time")
        if ts[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if ts.size > 1 and np.any(np.diff(ts) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        if ts[-1] > self.horizon_T:
            raise ValueError(f"grid exceeds horizon T = {self.horizon_T}")

    @classmethod
    def uniform(cls, horizon_T: float, steps: int = 64) -> "EvaluationGrid":
        """0 to T in ``steps`` uniform steps (steps+1 grid times)."""
        if steps < 1:
            raise ValueError("need at least one step")
        return cls(times=np.linspace(0.0, horizon_T, steps + 1), horizon_T=float(horizon_T))

    def index_of(self, t: float) -> int:
        """Index of an exact grid time; raises for off-grid values."""
        i = int(np.searchsorted(self.times, t))
        if i < self.times.size and self.times[i] == t:
            return i
        raise ValueError(f"time {t!r} is not on the evaluation grid")

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True, eq=False)
class ProcessSample:
    """One evaluated path of the approximant: values[(component, grid index)]."""

    epsilon: float
    config: ThetaConfig
    grid: EvaluationGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.shape != (self.config.dimension, len(self.grid)):
            raise ValueError(
                f"values shape {v.shape} does not match "
                f"({self.config.dimension}, {len(self.grid)})"
            )

    @property
    def dimension(self) -> int:
        return self.config.dimension

    def at_time(self, t: float) -> np.ndarray:
        return self.values[:, self.grid.index_of(t)]

    def to_csv(self) -> str:
        """CSV export: header t,comp_1,...,comp_d; 17 significant digits; LF."""
        buf = io.StringIO()
        d = self.dimension
        buf.write("t," + ",".join(f"comp_{i}" for i in range(1, d + 1)) + "\n")
        for g, t in enumerate(self.grid.times):
            row = [f"{t:.17g}"] + [f"{self.values[c, g]:.17g}" for c in range(d)]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """M replications at one epsilon: values[(replication, component, grid index)].

    The in-memory form of a set of paths that share a config, an epsilon
    and a grid; every estimator in ``stats`` reads ``values`` directly.
    """

    epsilon: float
    config: ThetaConfig
    grid: EvaluationGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 3 or v.shape[1:] != (self.config.dimension, len(self.grid)):
            raise ValueError(
                f"values shape {v.shape} does not match "
                f"(M, {self.config.dimension}, {len(self.grid)})"
            )

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def at_time(self, t: float) -> np.ndarray:
        """(replications, dimension) values at grid time t."""
        return self.values[:, :, self.grid.index_of(t)]


class _Plan:
    """What ``build_sample`` needs that depends only on (config, epsilon, grid).

    ``needed`` is 2T/eps^2 and ``xs`` the read-only path times 2t/eps^2
    of the grid times, both in the long-double steps of
    ``map_to_path_time``. ``levels`` is the read-only (dimension, K) table
    of trig(theta_i * k), k < K: row i is ``_level_values`` of component
    i, and a level's value does not depend on K, so the table is regrown
    to exactly the levels a longer path reaches.
    """

    def __init__(self, config: ThetaConfig, epsilon: float, grid: EvaluationGrid) -> None:
        self.config = config
        self.epsilon = epsilon
        self.grid = grid
        self.needed = map_to_path_time(grid.horizon_T, epsilon)
        eps_ld = np.longdouble(epsilon)
        self.xs = np.asarray(
            np.longdouble(2.0) * grid.times.astype(np.longdouble) / (eps_ld * eps_ld),
            dtype=np.float64,
        )
        self.xs.flags.writeable = False
        self.levels = np.empty((config.dimension, 0))

    def level_table(self, n_levels: int) -> np.ndarray:
        """The level table, regrown first if it has fewer than n_levels."""
        if self.levels.shape[1] < n_levels:
            self.levels = None  # release the short table before regrowing
            table = np.empty((self.config.dimension, n_levels))
            for c, angle in enumerate(self.config.angles):
                table[c] = _level_values(angle, n_levels, self.config.component_kind(c))
            table.flags.writeable = False
            self.levels = table
        return self.levels


# the plan of the last (config, epsilon, grid) build_sample saw; a run
# evaluates one config on one grid per epsilon
_LAST_PLAN: _Plan | None = None


def build_sample(
    path: PoissonPath,
    epsilon: float,
    config: ThetaConfig,
    grid: EvaluationGrid,
) -> ProcessSample:
    """Evaluate every component on the grid from one shared Poisson path.

    Cost is O(dimension * jumps) adds: everything that depends only on
    (config, epsilon, grid), i.e. 2T/eps^2, the grid's path times
    2t/eps^2 and the level values trig(theta_i * k), comes from the plan
    of the last triple seen, rebuilt when any of the three changes, and
    one 2-D prefix sum over the path's jump segments serves all
    components. Row i agrees bit for bit with
    eps * integral_from_zero(path, theta_i, kind_i, path times), with the
    1/sqrt(2) factor applied afterwards for pi-rescaled components.
    """
    global _LAST_PLAN
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    plan = _LAST_PLAN
    if plan is None or not (
        plan.config is config and plan.grid is grid and plan.epsilon == epsilon
    ):
        plan = _LAST_PLAN = _Plan(config, epsilon, grid)
    needed, xs = plan.needed, plan.xs
    if needed > HORIZON_CAP:
        raise ValueError(
            f"rescaled horizon 2T/eps^2 = {needed:.6g} exceeds the cap {HORIZON_CAP:.0e}"
        )
    if path.horizon < needed:
        raise ValueError(
            f"path horizon {path.horizon:.6g} is too short; "
            f"need 2T/eps^2 = {needed:.6g}"
        )

    # the steps of integral_from_zero, run for all components at once;
    # count level k holds on [starts[k], starts[k + 1])
    jumps = path.jump_times
    n = jumps.size
    starts = np.empty(n + 1)
    starts[0] = 0.0
    starts[1:] = jumps
    levels = plan.level_table(n + 1)
    prefix = np.empty((config.dimension, n + 1))
    prefix[:, 0] = 0.0
    np.multiply(levels[:, :n], starts[1:] - starts[:-1], out=prefix[:, 1:])
    np.add.accumulate(prefix[:, 1:], axis=1, out=prefix[:, 1:])  # cumsum's own ufunc
    # eps * (prefix[:, j] + levels[:, j] * (xs - starts[j])), in place
    j = np.searchsorted(jumps, xs, side="right")
    values = levels.take(j, axis=1)
    values *= xs - starts.take(j)
    values += prefix.take(j, axis=1)
    values *= epsilon
    for i in config.pi_rescaled_indices:
        values[i - 1] *= INV_SQRT2
    return ProcessSample(epsilon=float(epsilon), config=config, grid=grid, values=values)
