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

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .angles import ThetaConfig
from .poisson import PoissonPath, _first_block_size, _level_values

# Memory cap of one replication, in bytes, charged at 26 + 32*ceil(d/2)
# bytes per jump, 2T/eps^2 jumps on average. That over-counts: a path holds
# 8 bytes per jump (plus its block's uncut tail) and the level table, which
# is allocated when the BuildPlan is made, 16*ceil(d/2), while build_sample
# holds its prefix sums one sub-block at a time. The charge stays until the
# cap becomes a time budget.
REPLICATION_BYTES_CAP = 2**30

# Memory cap of one epsilon's sample block, the (M, d, G) float64 array
# that generate_samples gathers, in bytes.
BLOCK_BYTES_CAP = 2**31

# Jump segments per sub-block of build_sample's prefix sums. Its working
# memory is about (16*ceil(d/2) + 24) * SUB_BLOCK bytes whatever the path's
# length: the prefix rows, the segment starts and their complex widths.
SUB_BLOCK = 8192

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# The smallest step of an EvaluationGrid.
SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


def map_to_path_time(t: float, epsilon: float) -> float:
    """Map process time t to path time 2t/eps^2, computed in extended precision."""
    num = np.longdouble(2.0) * np.longdouble(t)
    den = np.longdouble(epsilon) * np.longdouble(epsilon)
    return float(num / den)


def path_horizon(horizon_T: float, epsilon: float, dimension: int) -> float:
    """2T/eps^2, the path time every replication at ``epsilon`` reaches,
    from ``map_to_path_time``. Refuses epsilon outside (0, 1], and
    2T/eps^2 jumps in ``dimension`` components charged above the cap."""
    if not 0.0 < epsilon <= 1.0:  # refuses nan too
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    needed = map_to_path_time(horizon_T, epsilon)
    nbytes = needed * (26 + 32 * _rows(dimension))
    if nbytes > REPLICATION_BYTES_CAP:
        raise ValueError(f"2T/eps^2 = {needed:.6g} jumps at d = {dimension} take about "
                         f"{nbytes:.3g} bytes, above the cap of {REPLICATION_BYTES_CAP}")
    return needed


def check_block_memory(M: int, d: int, G: int) -> None:
    """Refuse a sample block of M replications, d components and G grid
    times, the (M, d, G) float64 array, above the cap."""
    nbytes = M * d * G * 8
    if nbytes > BLOCK_BYTES_CAP:
        raise ValueError(f"the sample block of M = {M} replications, d = {d} components "
                         f"and G = {G} grid times takes {nbytes:.3g} bytes, "
                         f"above the cap of {BLOCK_BYTES_CAP}")


@dataclass(frozen=True)
class EvaluationGrid:
    """0 to T in ``steps`` uniform steps: the ``steps + 1`` times
    ``np.linspace(0, T, steps + 1)``, the last of which is T exactly.

    The step T/steps must be at least the smallest normal float: only
    below it can two of the times tie, as 0, 0, 5e-324 do for T = 5e-324
    in 2 steps. Above it, i*step cannot round onto (i + 1)*step for fewer
    than 2^52 steps.

    A value: equal (T, steps) compare and hash equal, and ``times`` is a
    new array at every call, so no caller can change another's.
    """

    horizon_T: float
    steps: int

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon_T < math.inf:  # refuses nan too
            raise ValueError(f"horizon_T must be finite and positive, got {self.horizon_T!r}")
        object.__setattr__(self, "steps", operator.index(self.steps))  # TypeError on 2.5
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps!r}")
        # T/steps exactly, since steps may lie beyond a float's range
        if Fraction(float(self.horizon_T)) / self.steps < SMALLEST_NORMAL:
            raise ValueError(f"the grid step horizon_T / steps = {self.horizon_T!r} / "
                             f"{self.steps} is below the smallest normal float "
                             f"{SMALLEST_NORMAL!r}, so grid times can tie")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon_T, self.steps + 1)

    def index_of(self, t: float) -> int:
        """Index of an exact grid time; raises for off-grid values."""
        times = self.times
        i = int(np.searchsorted(times, t))
        if i < times.size and times[i] == t:
            return i
        raise ValueError(f"time {t!r} is not on the evaluation grid")

    def __len__(self) -> int:
        return self.steps + 1


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """M replications at one epsilon: values[(replication, component, grid index)].

    The one in-memory form of paths that share a config, an epsilon and
    a grid, one (``build_sample``) or M of them (``generate_samples``);
    every estimator in ``stats`` reads ``values`` directly.
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

    @classmethod
    def _unchecked(
        cls, epsilon: float, config: ThetaConfig, grid: EvaluationGrid, values: np.ndarray
    ) -> "SampleBlock":
        """A block without the shape check, for ``build_sample``'s (1, d, G) float64."""
        block = object.__new__(cls)
        block.__dict__.update(epsilon=epsilon, config=config, grid=grid, values=values)
        return block

    @property
    def dimension(self) -> int:
        return self.config.dimension

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def at_time(self, t: float) -> np.ndarray:
        """(replications, dimension) values at grid time t."""
        return self.values[:, :, self.grid.index_of(t)]


@dataclass(frozen=True, eq=False)
class BuildPlan:
    """What ``build_sample`` needs that depends only on (config, epsilon, grid).

    Made by the caller for the paths it builds at one epsilon and passed
    with every path (``generate_samples`` makes one per chunk, in the
    process that makes the chunk's rows); nothing changes it afterwards.
    ``needed`` is 2T/eps^2 from ``path_horizon``, which refuses epsilon
    outside (0, 1] and a path above the replication cap, and ``xs`` the
    read-only path times 2t/eps^2 of the grid times, from
    ``map_to_path_time``. ``rescaled`` holds the
    components scaled by 1/sqrt(2): the config's ``pi_components`` when
    ``allow_pi_in_cos`` is set.
    ``levels`` is the read-only table of trig(theta_i * k), k < K, two
    components to a row: ceil(d/2) complex128 rows, component 2l in the
    real part of row l and component 2l + 1 in its imaginary part (an odd
    d pads the last imaginary parts with +0.0). K reaches the longest
    path that ``sample_poisson_path`` draws from its first block of
    uniforms at 2T/eps^2.
    """

    config: ThetaConfig
    epsilon: float
    grid: EvaluationGrid
    needed: float = field(init=False, repr=False)
    xs: np.ndarray = field(init=False, repr=False)
    rescaled: tuple[int, ...] = field(init=False, repr=False)
    levels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        config = self.config
        needed = path_horizon(self.grid.horizon_T, self.epsilon, config.dimension)
        eps = float(self.epsilon)
        xs = np.array([map_to_path_time(t, eps) for t in self.grid.times.tolist()])
        levels = _level_rows(config, 0, _first_block_size(needed) + 1)
        xs.flags.writeable = levels.flags.writeable = False
        rescaled = config.pi_components if config.allow_pi_in_cos else ()
        self.__dict__.update(epsilon=eps, needed=needed, xs=xs, levels=levels, rescaled=rescaled)


def _level_rows(config: ThetaConfig, start: int, stop: int) -> np.ndarray:
    """Levels [start, stop) of ``BuildPlan.levels``' rows, as a new array.

    Filled ``SUB_BLOCK`` levels at a time, which bounds the temporaries
    of ``_level_values`` (long double phases for decimal angles). A
    level's value does not depend on the range it is filled in.
    """
    rows = np.empty((_rows(config.dimension), stop - start), dtype=np.complex128)
    for lo in range(start, stop, SUB_BLOCK):
        hi = min(lo + SUB_BLOCK, stop)
        for c, angle in enumerate(config.angles):
            values = _level_values(angle, hi, config.component_kind(c), start=lo)
            (rows.imag if c % 2 else rows.real)[c // 2, lo - start : hi - start] = values
    if config.dimension % 2:
        rows.imag[-1] = 0.0
    return rows


def _rows(dimension: int) -> int:
    """Complex rows of a table that holds ``dimension`` components, two to a row."""
    return -(-dimension // 2)


def _chain(ends: np.ndarray, levels: np.ndarray, starts: np.ndarray, widths: np.ndarray,
           prefix: np.ndarray) -> None:
    """Continue each row's prefix chain from column 0 over the segments
    from ``starts[0]`` to the jump times ``ends``, in place: one
    ``levels`` column and one ``widths`` entry per segment, and one more
    ``starts`` and ``prefix`` column than there are segments."""
    starts[1:] = ends
    np.subtract(ends, starts[:-1], out=widths.real)
    np.multiply(levels, widths, out=prefix[:, 1:])
    # one chain per row, two independent lanes in it; cumsum's own ufunc,
    # started from the carry in column 0 (+0.0 on the first sub-block)
    np.add.accumulate(prefix, axis=1, out=prefix)


def build_sample(path: PoissonPath, plan: BuildPlan) -> SampleBlock:
    """Evaluate every component on the grid from one shared Poisson path,
    as a one-replication block of shape (1, dimension, len(grid)).

    Cost is O(dimension * jumps) adds: everything that depends only on
    (config, epsilon, grid), i.e. 2T/eps^2, the grid's path times
    2t/eps^2 and the level values trig(theta_i * k), comes from ``plan``.
    A path longer than the plan's level table (one that needed a second
    block of uniforms) extends a copy of it for this call alone. The plan
    pairs the components two to a complex128 row, and every step runs on
    those rows: the prefix sum over the path's jump segments runs
    ceil(d/2) dependent add chains of two independent lanes, and the grid
    values are evaluated in the same rows. Each lane rounds as a float64
    row of its own would: a complex addition is two IEEE additions, and a
    complex row times a real factor >= 0 (a width, or a grid time's
    distance into its segment) is exactly the two real products, since no
    level or prefix is -0.0. The one exception, a grid time exactly on a
    jump (a distance of 0), can give a zero of the other sign than a * 0,
    and that zero is then added to a prefix that is never -0.0.

    The prefix sum runs over the segments in one pass when the path has
    at most ``SUB_BLOCK`` jumps. A longer path is walked in sub-blocks of
    ``SUB_BLOCK``, in one buffer whose column 0 carries the previous
    sub-block's last prefix, so one accumulate continues the chain with
    carry + x0, the addition an unblocked accumulate makes there. On the
    first sub-block column 0 holds +0.0, and +0.0 + x0 is x0 for every
    product the kernel makes, since none is -0.0. Only the prefix values
    at the grid's path times are kept, so the working memory does not
    grow with the path. The widths are written into a complex buffer with
    +0.0 imaginary parts, the value numpy would cast each float width to
    before the multiply. Row i agrees bit for bit with
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
    # to a complex row; count level k holds on [starts[k], starts[k + 1]).
    # Within the sub-block of segments [lo, hi), starts[i] and prefix[:, i]
    # hold level lo + i
    jumps = path.jump_times
    n = jumps.size
    levels, k = plan.levels, plan.levels.shape[1]
    if n >= k:  # a path that needed a second block of uniforms; a copy for this call
        levels = np.concatenate((levels, _level_rows(plan.config, k, n + 1)), axis=1)
    size = min(n, SUB_BLOCK)
    # column 0 of starts and prefix starts the chain at +0.0; the widths'
    # imaginary parts stay +0.0
    starts = np.zeros(size + 1)
    widths = np.zeros(size, dtype=np.complex128)
    prefix = np.zeros((levels.shape[0], size + 1), dtype=np.complex128)
    j = jumps.searchsorted(xs, side="right")  # as in sample_poisson_path
    grid = levels.take(j, axis=1)
    # prefix[:, j] + levels[:, j] * (xs - starts[j]), in place, for the grid
    # times whose level j lies in the segments just summed
    if n <= SUB_BLOCK:  # the whole path in one pass
        _chain(jumps, levels[:, :n], starts, widths, prefix)
        grid *= xs - starts.take(j)
        grid += prefix.take(j, axis=1)
    else:  # a longer path, one sub-block at a time
        lo = g0 = 0
        while lo < n:
            hi = min(lo + SUB_BLOCK, n)
            m = hi - lo
            chain = prefix[:, : m + 1]
            _chain(jumps[lo:hi], levels[:, lo:hi], starts[: m + 1], widths[:m], chain)
            g1 = j.size if hi == n else int(j.searchsorted(hi, side="right"))
            k, part = j[g0:g1] - lo, grid[:, g0:g1]
            part *= xs[g0:g1] - starts.take(k)
            part += prefix.take(k, axis=1)  # the whole buffer: a slice would be copied
            starts[0] = starts[m]
            prefix[:, 0] = prefix[:, m]
            lo, g0 = hi, g1
    # the rows in component order: row l's lanes are components 2l and 2l + 1
    lanes = grid[..., None].view(np.float64).transpose(0, 2, 1)
    values = lanes.reshape(-1, j.size)[: plan.config.dimension]
    values *= plan.epsilon
    for i in plan.rescaled:
        values[i] *= INV_SQRT2
    return SampleBlock._unchecked(plan.epsilon, plan.config, plan.grid, values[None])
