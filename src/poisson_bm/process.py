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

# Memory cap of one replication, in bytes: build_sample holds about
# 26 + 32*ceil(d/2) bytes per jump (path and starts, then the level table and
# the prefix sums in ceil(d/2) complex rows), 2T/eps^2 jumps on average.
REPLICATION_BYTES_CAP = 2**30

# Memory cap of one epsilon's sample block, the (M, d, G) float64 array
# that generate_samples gathers, in bytes.
BLOCK_BYTES_CAP = 2**31

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def map_to_path_time(t: float, epsilon: float) -> float:
    """Map process time t to path time 2t/eps^2, computed in extended precision."""
    num = np.longdouble(2.0) * np.longdouble(t)
    den = np.longdouble(epsilon) * np.longdouble(epsilon)
    return float(num / den)


def check_replication_memory(needed: float, dimension: int) -> None:
    """Refuse ``needed`` = 2T/eps^2 jumps in ``dimension`` components above the cap."""
    nbytes = needed * (26 + 32 * _rows(dimension))
    if nbytes > REPLICATION_BYTES_CAP:
        raise ValueError(f"2T/eps^2 = {needed:.6g} jumps at d = {dimension} take about "
                         f"{nbytes:.3g} bytes, above the cap of {REPLICATION_BYTES_CAP}")


@dataclass(frozen=True, eq=False)
class EvaluationGrid:
    """Strictly increasing evaluation times starting at 0, within [0, T].

    ``times`` is the grid's own read-only copy, so path times computed
    from it once (see ``BuildPlan``) never go stale.
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

    def __init__(
        self, epsilon: float, config: ThetaConfig, grid: EvaluationGrid, values: np.ndarray
    ) -> None:
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (config.dimension, len(grid)):
            raise ValueError(
                f"values shape {v.shape} does not match ({config.dimension}, {len(grid)})"
            )
        self.__dict__.update(epsilon=epsilon, config=config, grid=grid, values=v)

    @classmethod
    def _unchecked(
        cls, epsilon: float, config: ThetaConfig, grid: EvaluationGrid, values: np.ndarray
    ) -> "ProcessSample":
        """A sample built without ``__init__``'s shape check.

        For ``build_sample`` only, whose ``values`` is already a float64
        (dimension, len(grid)) array.
        """
        sample = object.__new__(cls)
        sample.__dict__.update(epsilon=epsilon, config=config, grid=grid, values=values)
        return sample

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


class BuildPlan:
    """What ``build_sample`` needs that depends only on (config, epsilon, grid).

    Made once per epsilon by the caller, which passes it with every path.
    epsilon must lie in (0, 1]. ``needed`` is 2T/eps^2, within the
    replication cap, and ``xs`` the read-only path times 2t/eps^2 of the
    grid times, both from ``map_to_path_time``. ``levels`` is the
    read-only table of trig(theta_i * k), k < K, two components to a
    row: ceil(d/2) complex128 rows, component 2l in the real part of row
    l and component 2l + 1 in its imaginary part (an odd d pads the last
    imaginary parts with +0.0). ``level_floats`` is the same memory as a
    (rows, K, 2) float64 array. Component i's lane holds
    ``_level_values`` of component i, and a level's value does not
    depend on K, so a longer path appends only the levels [K_old, K_new):
    the table always holds exactly the levels reached. A pickled plan
    carries only (config, epsilon, grid); it is rebuilt with an empty
    table where it is loaded.
    """

    def __init__(self, config: ThetaConfig, epsilon: float, grid: EvaluationGrid) -> None:
        if not (0.0 < epsilon <= 1.0):
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        self.config, self.epsilon, self.grid = config, float(epsilon), grid
        self.needed = map_to_path_time(grid.horizon_T, self.epsilon)
        check_replication_memory(self.needed, config.dimension)
        self.xs = np.array([map_to_path_time(t, self.epsilon) for t in grid.times.tolist()])
        self.xs.flags.writeable = False
        self.rescaled = tuple(i - 1 for i in config.pi_rescaled_indices)
        self._set_levels(np.empty((_rows(config.dimension), 0), dtype=np.complex128))

    def __reduce__(self):
        return BuildPlan, (self.config, self.epsilon, self.grid)

    def _set_levels(self, table: np.ndarray) -> None:
        table.flags.writeable = False
        self.levels = table
        self.level_floats = table.view(np.float64).reshape(*table.shape, 2)

    def level_table(self, n_levels: int) -> np.ndarray:
        """The level table, first grown by its missing tail if shorter than n_levels."""
        old = self.levels
        k_old = old.shape[1]
        if k_old < n_levels:
            table = np.empty((old.shape[0], n_levels), dtype=np.complex128)
            table[:, :k_old] = old
            tail = table[:, k_old:].view(np.float64)  # per row: re, im, re, im, ...
            for c, angle in enumerate(self.config.angles):
                tail[c // 2, c % 2::2] = _level_values(
                    angle, n_levels, self.config.component_kind(c), start=k_old
                )
            if self.config.dimension % 2:
                tail[-1, 1::2] = 0.0
            self._set_levels(table)
        return self.levels


def _rows(dimension: int) -> int:
    """Complex rows of a table that holds ``dimension`` components, two to a row."""
    return -(-dimension // 2)


def build_sample(path: PoissonPath, plan: BuildPlan) -> ProcessSample:
    """Evaluate every component on the grid from one shared Poisson path.

    Cost is O(dimension * jumps) adds: everything that depends only on
    (config, epsilon, grid), i.e. 2T/eps^2, the grid's path times
    2t/eps^2 and the level values trig(theta_i * k), comes from ``plan``,
    whose level table only a path longer than every earlier one grows.
    The plan pairs the components two to a complex128 row (see
    ``BuildPlan``), so one prefix sum over the path's jump segments runs
    ceil(d/2) dependent add chains, each with two independent lanes. A
    complex addition is two IEEE additions, and a complex level times a
    real width is exactly the two real products, since no level is -0.0
    and every width is > 0; so each lane rounds exactly as a float64 row
    of its own would. Row i agrees bit for bit with
    eps * integral_from_zero(path, theta_i, kind_i, path times), with the
    1/sqrt(2) factor applied afterwards for pi-rescaled components.
    """
    needed, xs = plan.needed, plan.xs
    if path.horizon < needed:
        raise ValueError(
            f"path horizon {path.horizon:.6g} is too short; "
            f"need 2T/eps^2 = {needed:.6g}"
        )

    # the steps of integral_from_zero, run for all components at once, two
    # to a complex row; count level k holds on [starts[k], starts[k + 1])
    jumps = path.jump_times
    n = jumps.size
    levels = plan.level_table(n + 1)  # first: growth briefly holds the old and new table
    starts = np.empty(n + 1)
    starts[0] = 0.0
    starts[1:] = jumps
    prefix = np.empty((levels.shape[0], n + 1), dtype=np.complex128)
    prefix[:, 0] = 0.0
    segments = prefix[:, 1:]
    # (a + bi)(w + 0i) = a w + b w i exactly: no level is -0.0 and w > 0
    np.multiply(levels[:, :n], jumps - starts[:-1], out=segments)
    # one chain per row, two independent lanes in it; cumsum's own ufunc
    np.add.accumulate(segments, axis=1, out=segments)
    # eps * (prefix[:, j] + levels[:, j] * (xs - starts[j])) in float64, in
    # place, on (rows, G, 2) views; then the rows in component order
    j = jumps.searchsorted(xs, side="right")  # as in sample_poisson_path
    lanes = plan.level_floats.take(j, axis=1)
    lanes *= (xs - starts.take(j))[:, None]
    lanes += prefix.view(np.float64).reshape(lanes.shape[0], n + 1, 2).take(j, axis=1)
    lanes *= plan.epsilon
    values = lanes.transpose(0, 2, 1).reshape(-1, j.size)[: plan.config.dimension]
    for i in plan.rescaled:
        values[i] *= INV_SQRT2
    return ProcessSample._unchecked(plan.epsilon, plan.config, plan.grid, values)
