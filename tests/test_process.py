"""Process assembly: grids, samples, sample blocks."""

import dataclasses
import gc
import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from poisson_bm import (
    BuildPlan,
    EvaluationGrid,
    PoissonPath,
    RunConfig,
    SampleBlock,
    ThetaConfig,
    build_sample,
    derive_stream,
    generate_samples,
    map_to_path_time,
    run_experiment,
    sample_poisson_path,
)
from poisson_bm.poisson import SMALLEST_NORMAL, _first_block_size, _level_values, integral_from_zero
from poisson_bm.process import (
    BLOCK_BYTES_CAP,
    INV_SQRT2,
    SUB_BLOCK,
    _level_rows,
    check_block_memory,
)

EPS = 0.4
T = 1.0


def _path_for(eps=EPS, T_=T, seed=101, rep=0, margin=1.0):
    horizon = map_to_path_time(T_, eps) * margin
    return sample_poisson_path(horizon, derive_stream(seed, 0, rep))


class TestEvaluationGrid:
    def test_uniform_default(self):
        grid = EvaluationGrid(1.0, 64)
        assert len(grid) == 65
        assert grid.times[0] == 0.0
        assert grid.times[-1] == 1.0

    def test_must_start_at_zero(self):
        for T_, steps in ((1.0, 4), (0.7, 12), (5.3, 1)):
            assert EvaluationGrid(T_, steps).times[0] == 0.0
        # a horizon at or before 0, or none at all, makes no grid from 0
        for T_ in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^horizon_T must be finite and positive, got"):
                EvaluationGrid(T_, 4)

    def test_strictly_increasing(self):
        for T_, steps in ((1.0, 4), (0.7, 12), (5.3, 1), (1.0 / 3.0, 100)):
            assert np.all(np.diff(EvaluationGrid(T_, steps).times) > 0.0)
        # fewer than one step leaves no increasing pair of times
        for steps in (0, -1):
            with pytest.raises(ValueError, match="^steps must be at least 1, got"):
                EvaluationGrid(1.0, steps)

    @pytest.mark.parametrize("T_,steps",
                             [(5e-324, 2), (1e-323, 4), (1.5e-323, 4), (1e-310, 1)])
    def test_a_step_below_the_smallest_normal_float_is_refused(self, T_, steps):
        # linspace's times tie below it: 0, 0, 5e-324 for (5e-324, 2)
        with pytest.raises(ValueError, match=rf"^the grid step horizon_T / steps = "
                                             rf"{T_!r} / {steps} is below the smallest normal "
                                             rf"float {SMALLEST_NORMAL!r}, so grid times can tie$"):
            EvaluationGrid(T_, steps)

    def test_a_step_of_the_smallest_normal_float_is_a_grid(self):
        assert SMALLEST_NORMAL == np.finfo(np.float64).tiny == 2.2250738585072014e-308
        times = EvaluationGrid(SMALLEST_NORMAL, 1).times
        assert times.tolist() == [0.0, SMALLEST_NORMAL]
        # the step is T/steps exactly, also for a step count beyond a float's range
        with pytest.raises(ValueError, match="below the smallest normal float"):
            EvaluationGrid(1.0, 10**400)

    def test_step_count_must_be_an_integer(self):
        # refused when the grid is made, not at its first use
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            EvaluationGrid(1.0, 2.5)
        grid = EvaluationGrid(1.0, np.int64(4))
        assert type(grid.steps) is int and grid == EvaluationGrid(1.0, 4)

    def test_horizon_is_the_last_time(self):
        assert EvaluationGrid(0.5, 2).horizon_T == 0.5
        for T in (0.9, 7.5, 1.0, 1.7, 5.3, 1.0 / 3.0):
            for steps in (1, 12, 64, 100):
                # linspace ends on T exactly, so 2T/eps^2 keeps its bits
                grid = EvaluationGrid(T, steps)
                assert grid.horizon_T == T == grid.times[-1], (T, steps)
                want = np.linspace(0.0, T, steps + 1)
                assert grid.times.tobytes() == want.tobytes(), (T, steps)

    def test_index_of_exact_match_only(self):
        grid = EvaluationGrid(1.0, 4)
        assert grid.index_of(0.5) == 2
        with pytest.raises(ValueError):
            grid.index_of(0.3)

    def test_compares_and_hashes_by_value(self):
        grid = EvaluationGrid(1.0, 4)
        clone = pickle.loads(pickle.dumps(grid))
        for same in (EvaluationGrid(1.0, 4), EvaluationGrid(1, 4), clone):
            assert same == grid and hash(same) == hash(grid)
        for other in (EvaluationGrid(1.0, 5), EvaluationGrid(2.0, 4)):
            assert other != grid
        plans = {grid: "plan"}
        assert plans[EvaluationGrid(1.0, 4)] == "plan" and plans[clone] == "plan"
        assert EvaluationGrid(2.0, 4) not in plans
        assert [f.name for f in dataclasses.fields(grid)] == ["horizon_T", "steps"]
        assert "index_of" in EvaluationGrid.__dict__


def test_block_memory_cap_boundary():
    # M d G doubles; checking allocates none of them
    M_cap = BLOCK_BYTES_CAP // (4 * 64 * 8)
    check_block_memory(M_cap, 4, 64)
    with pytest.raises(ValueError, match=rf"^the sample block of M = {M_cap + 1} replications, "
                                         r"d = 4 components and G = 64 grid times takes "):
        check_block_memory(M_cap + 1, 4, 64)
    with pytest.raises(ValueError, match=r"G = 1099511627777 grid times .* cap of 2147483648$"):
        check_block_memory(500, 2, 2**40 + 1)


class TestBuildSample:
    def test_all_components_zero_at_origin(self):
        cfg = ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=[1.1])
        grid = EvaluationGrid(T, 16)
        for rep in range(5):
            sample = build_sample(_path_for(rep=rep), BuildPlan(cfg, EPS, grid))
            assert np.all(sample.values[0][:, 0] == 0.0)

    def test_bitwise_consistency_with_integral(self):
        cfg = ThetaConfig(cos_block=["1/2 pi"])
        grid = EvaluationGrid(T, 16)
        path = _path_for()
        sample = build_sample(path, BuildPlan(cfg, EPS, grid))
        for g, t in enumerate(grid.times):
            x = map_to_path_time(t, EPS)
            expected = EPS * integral_from_zero(path, cfg.angles[0], "cos", [x])[0]
            assert sample.values[0][0, g] == expected  # bit-for-bit

    def test_pi_rescale_is_exactly_inv_sqrt2(self):
        grid = EvaluationGrid(T, 16)
        path = _path_for()
        plain = build_sample(path, BuildPlan(ThetaConfig(cos_block=["pi"]), EPS, grid))
        rescaled = ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True)
        scaled = build_sample(path, BuildPlan(rescaled, EPS, grid))
        assert np.array_equal(scaled.values[0], plain.values[0] * (1.0 / math.sqrt(2.0)))

    def test_horizon_too_short_names_requirement(self):
        cfg = ThetaConfig(cos_block=[1.0])
        grid = EvaluationGrid(T, 8)
        short = sample_poisson_path(5.0, derive_stream(1, 0, 0))
        with pytest.raises(ValueError, match="2T/eps"):
            build_sample(short, BuildPlan(cfg, EPS, grid))

    def test_epsilon_bounds(self):
        cfg = ThetaConfig(cos_block=[1.0])
        grid = EvaluationGrid(T, 8)
        for eps in (0.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"^epsilon must be in \(0, 1\]"):
                BuildPlan(cfg, eps, grid)
        assert BuildPlan(cfg, 1.0, grid).epsilon == 1.0

    def test_horizon_cap_enforced(self):
        # the plan refuses 2T/eps^2 above the cap before any path is drawn
        cfg = ThetaConfig(cos_block=[1.0])
        grid = EvaluationGrid(1000.0, 4)
        with pytest.raises(ValueError, match="cap"):
            BuildPlan(cfg, 1e-4, grid)

    def test_determinism(self):
        cfg = ThetaConfig(cos_block=[2.2], sin_block=[1.1])
        grid = EvaluationGrid(T, 16)
        a = build_sample(_path_for(seed=55), BuildPlan(cfg, EPS, grid))
        b = build_sample(_path_for(seed=55), BuildPlan(cfg, EPS, grid))
        assert np.array_equal(a.values[0], b.values[0])

    def test_lipschitz_between_grid_points(self):
        # |x(t2) - x(t1)| <= 2 (t2 - t1) / eps: integrand bounded by one
        cfg = ThetaConfig(cos_block=[2.2, "1/2 pi"], sin_block=[1.1])
        grid = EvaluationGrid(T, 64)
        for rep in range(5):
            sample = build_sample(_path_for(rep=rep), BuildPlan(cfg, EPS, grid))
            steps = np.abs(np.diff(sample.values[0], axis=1))
            bounds = 2.0 * np.diff(grid.times) / EPS
            slack = 8 * EPS * np.spacing(map_to_path_time(T, EPS))
            assert np.all(steps <= bounds + slack)

    def test_sum_2pi_degeneracy_identities_exact(self):
        # theta' = 2*pi - theta: cos components identical, sin components negated
        grid = EvaluationGrid(T, 32)
        path = _path_for(seed=77)
        cfg = ThetaConfig(
            cos_block=["2/5 pi", "8/5 pi"], sin_block=["2/5 pi", "8/5 pi"]
        )
        sample = build_sample(path, BuildPlan(cfg, EPS, grid))
        assert np.array_equal(sample.values[0][0], sample.values[0][1])
        assert np.array_equal(sample.values[0][2], -sample.values[0][3])

    def test_sum_2pi_degeneracy_decimal_inputs_close(self):
        # decimal angles cannot be bit-exact; phase drift stays tiny
        grid = EvaluationGrid(T, 32)
        path = _path_for(seed=78)
        theta = 2.2
        cfg = ThetaConfig(
            cos_block=[theta, 2.0 * math.pi - theta],
            sin_block=[theta, 2.0 * math.pi - theta],
        )
        sample = build_sample(path, BuildPlan(cfg, EPS, grid))
        assert np.allclose(sample.values[0][0], sample.values[0][1], atol=1e-10, rtol=0)
        assert np.allclose(sample.values[0][2], -sample.values[0][3], atol=1e-10, rtol=0)

    def test_stroock_increment_bound(self):
        # |delta| <= eps * (2t/eps^2 - 2s/eps^2) for the angle-pi component
        grid = EvaluationGrid(T, 8)
        sample = build_sample(
            _path_for(seed=92), BuildPlan(ThetaConfig(cos_block=["pi"]), EPS, grid)
        )
        delta = sample.at_time(0.75) - sample.at_time(0.25)
        bound = EPS * (map_to_path_time(0.75, EPS) - map_to_path_time(0.25, EPS))
        assert abs(delta[0]) <= bound * (1 + 1e-12)


def _reference_values(path, eps, cfg, grid):
    """Per-component evaluation: one integral_from_zero call per component."""
    xs = np.array([map_to_path_time(t, eps) for t in grid.times])
    rescale = {i - 1 for i in cfg.pi_rescaled_indices}
    rows = []
    for c, angle in enumerate(cfg.angles):
        row = eps * integral_from_zero(path, angle, cfg.component_kind(c), xs)
        rows.append(row * INV_SQRT2 if c in rescale else row)
    return np.vstack(rows)


def _assert_matches_reference(path, plan):
    got = build_sample(path, plan).values[0]
    want = _reference_values(path, plan.epsilon, plan.config, plan.grid)
    assert got.tobytes() == want.tobytes()


class TestBuildSampleBitIdentity:
    """The plan's level table and the 2-D prefix sum change no bit."""

    MIXED = ThetaConfig(
        cos_block=["pi", 2.2, "2/5 pi"], sin_block=["1/2 pi", 1.1], allow_pi_in_cos=True
    )

    def test_grown_table_serves_shorter_paths(self):
        # d = 3: two complex rows, the second one's imaginary lane padded. The
        # plan's table holds the levels of any path from one block of uniforms;
        # a longer path grows a copy for its own call, and the plan's table
        # stays the same object with the same bytes for the paths after it
        cfg = ThetaConfig(cos_block=["pi", 1.3], sin_block=[0.9], allow_pi_in_cos=True)
        grid = EvaluationGrid(T, 16)
        eps = 0.3
        short = _path_for(eps=eps, seed=301)
        long = _path_for(eps=eps, seed=302, margin=8.0)
        plan = BuildPlan(cfg, eps, grid)
        table, before = plan.levels, plan.levels.tobytes()
        k, n = _first_block_size(plan.needed) + 1, long.jump_times.size
        assert table.shape == (2, k)
        assert short.jump_times.size + 1 < k < n + 1
        for path in (short, long, short):
            _assert_matches_reference(path, plan)
            assert plan.levels is table and table.tobytes() == before
        # a tail filled on its own equals the same slice of the whole
        whole = _level_rows(cfg, 0, n + 1)
        parts = np.concatenate((_level_rows(cfg, 0, k), _level_rows(cfg, k, n + 1)), axis=1)
        assert parts.tobytes() == whole.tobytes()
        assert whole[:, :k].tobytes() == before


def _on_jump_path(horizon, xs):
    """A path whose first jump is at xs[1] and with a jump exactly at each
    later path time in ``xs``, so the grid offset x - starts[j] is exactly
    0 there; more jumps fall between them."""
    jumps = np.union1d(xs[1:], np.arange(xs[1] + 0.7, horizon, 1.3))
    return PoissonPath(horizon=horizon, jump_times=jumps)


class _FirstBlockTooShort:
    """A Philox stream whose first block of uniforms lies close to 1, so that
    its jump times stay far below the horizon and the sampler needs a
    second block. Records the block sizes requested."""

    def __init__(self, seed):
        self.stream = derive_stream(seed, 0, 0)
        self.calls = []

    def random(self, n):
        self.calls.append(n)
        u = self.stream.random(n)
        return 1.0 - 0.01 * u if len(self.calls) == 1 else u


class TestTwoLaneKernel:
    """Each component of the two-lane kernel, whichever lane and part it
    takes, equals its own ``integral_from_zero`` bit for bit."""

    CONFIGS = {
        "long_double": ThetaConfig(cos_block=[2.2], sin_block=[1.1]),
        "rational": ThetaConfig(cos_block=["1/2 pi", "3/5 pi"], sin_block=["1/2 pi", "7/4 pi"]),
        "mixed_pi_rescaled": TestBuildSampleBitIdentity.MIXED,
        "d1_rational": ThetaConfig(cos_block=["2/5 pi"]),
        "d1_decimal": ThetaConfig(sin_block=[2.2]),
        "d1_pi": ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True),
        "d2_rational": ThetaConfig(cos_block=["1/2 pi"], sin_block=["7/4 pi"]),
        "d2_decimal": ThetaConfig(cos_block=[2.2], sin_block=[4.0]),
        "d2_pi_last": ThetaConfig(cos_block=[1.3, "pi"], allow_pi_in_cos=True),
        "d3_rational": ThetaConfig(cos_block=["3/5 pi"], sin_block=["1/2 pi", "7/4 pi"]),
        "d3_decimal": ThetaConfig(cos_block=[2.2, 0.4], sin_block=[4.0]),
        "d3_pi_last": ThetaConfig(cos_block=[2.2, "2/5 pi", "pi"], allow_pi_in_cos=True),
        "d5_mixed": ThetaConfig(cos_block=[0.4, "1/3 pi", 2.9], sin_block=["5/7 pi", 4.0]),
        "d5_pi_last": ThetaConfig(
            cos_block=[0.4, "1/3 pi", 2.9, "5/7 pi", "pi"], allow_pi_in_cos=True
        ),
    }

    def _assert_rows_match(self, path, eps, cfg, grid, plan=None):
        got = build_sample(path, plan or BuildPlan(cfg, eps, grid)).values[0]
        want = _reference_values(path, eps, cfg, grid)
        assert got.shape == want.shape == (cfg.dimension, len(grid))
        for c in range(cfg.dimension):
            assert got[c].tobytes() == want[c].tobytes(), c
        return got

    @pytest.mark.parametrize("name", CONFIGS)
    @pytest.mark.parametrize("eps,steps", [(0.4, 1), (0.2, 16), (0.05, 64)])
    def test_sampled_paths(self, name, eps, steps):
        grid = EvaluationGrid(T, steps)
        for rep in range(6):
            self._assert_rows_match(_path_for(eps=eps, rep=rep), eps, self.CONFIGS[name], grid)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_zero_jump_path(self, name):
        cfg, grid = self.CONFIGS[name], EvaluationGrid(T, 8)
        empty = PoissonPath(horizon=map_to_path_time(T, EPS), jump_times=np.empty(0))
        values = self._assert_rows_match(empty, EPS, cfg, grid)
        sines = [c for c in range(cfg.dimension) if cfg.component_kind(c) == "sin"]
        assert np.all(values[sines] == 0.0)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_path_from_a_second_uniform_block(self, name):
        eps, cfg, grid = 0.4, self.CONFIGS[name], EvaluationGrid(T, 4)
        stream = _FirstBlockTooShort(seed=501)
        path = sample_poisson_path(map_to_path_time(T, eps), stream)
        assert len(stream.calls) >= 2
        self._assert_rows_match(path, eps, cfg, grid)
        # one plan serves a first-block path, then a path whose levels reach
        # past its table by a tail that spans two sub-blocks; the table is
        # unchanged
        plan = BuildPlan(cfg, eps, grid)
        table, before = plan.levels, plan.levels.tobytes()
        n_long = _first_block_size(plan.needed) + SUB_BLOCK + 3
        rng = np.random.default_rng(502)
        long = PoissonPath(
            horizon=plan.needed, jump_times=np.sort(rng.uniform(0.0, plan.needed, n_long))
        )
        for p in (_path_for(eps=eps), long):
            self._assert_rows_match(p, eps, cfg, grid, plan)
        assert plan.levels is table and table.tobytes() == before

    @pytest.mark.parametrize("name", CONFIGS)
    def test_grid_time_on_a_jump_with_a_negative_level(self, name):
        # eps = 0.5: path times 0, 2, 4, 6, 8. The first jump sits at 2, so
        # there a sine component adds its level times an offset of exactly 0
        # to a prefix of +0.0: the sign-of-zero corner
        eps, cfg = 0.5, self.CONFIGS[name]
        grid = EvaluationGrid(T, 4)
        xs = np.array([map_to_path_time(t, eps) for t in grid.times])
        path = _on_jump_path(map_to_path_time(T, eps), xs)
        assert path.jump_times[0] == xs[1] == 2.0
        counts = path.jump_times.searchsorted(xs[1:], side="right")
        levels_there = [
            _level_values(a, path.jump_times.size + 1, cfg.component_kind(c))[counts]
            for c, a in enumerate(cfg.angles)
        ]
        assert any(np.any(v < 0.0) for v in levels_there)
        self._assert_rows_match(path, eps, cfg, grid)
        values = build_sample(path, BuildPlan(cfg, eps, grid)).values[0]
        assert not np.any(np.signbit(values[:, :2]) & (values[:, :2] == 0.0))


class TestPathTimePlans:
    """``BuildPlan``: what one (config, epsilon, grid) fixes, held by its caller."""

    MIXED = TestBuildSampleBitIdentity.MIXED
    EPSILONS = (0.4, 0.3, 0.2)

    def test_path_times_are_map_to_path_time(self):
        grid = EvaluationGrid(T, 16)
        for eps in self.EPSILONS:
            plan = BuildPlan(self.MIXED, eps, grid)
            assert plan.needed == map_to_path_time(grid.horizon_T, eps)
            assert plan.xs.tolist() == [map_to_path_time(float(t), eps) for t in grid.times]
            assert not plan.xs.flags.writeable and not plan.levels.flags.writeable

    def test_alternating_grids_and_epsilons_match_fresh_grids(self):
        # plans share no state: several in use by turns give a fresh grid's bits
        grids = [EvaluationGrid(T, 4), EvaluationGrid(T, 16)]
        paths = {eps: _path_for(eps=eps, seed=401) for eps in self.EPSILONS}
        plans = {(eps, g): BuildPlan(self.MIXED, eps, grid)
                 for eps in paths for g, grid in enumerate(grids)}
        for _ in range(2):
            for eps, path in paths.items():
                for g, grid in enumerate(grids):
                    fresh = EvaluationGrid(T, len(grid) - 1)
                    want = build_sample(path, BuildPlan(self.MIXED, eps, fresh)).values
                    for _ in range(2):  # a first use, then a repeat
                        got = build_sample(path, plans[eps, g]).values
                        assert got.tobytes() == want.tobytes()

    def test_alternating_configs_grids_and_epsilons_match_fresh_objects(self):
        config_args = [
            {"cos_block": ["pi", 2.2, "2/5 pi"], "sin_block": ["1/2 pi", 1.1],
             "allow_pi_in_cos": True},
            {"cos_block": [1.3, "3/5 pi", 0.4], "sin_block": [2.9, "7/4 pi"]},
        ]
        # two different configs, and two equal but distinct copies of each
        configs = [ThetaConfig(**args) for args in config_args * 2]
        grid_args = [(T, 16), (0.7, 12)]
        grids = [EvaluationGrid(*args) for args in grid_args]
        paths = [_path_for(eps=eps, seed=402) for eps in self.EPSILONS]
        want = {}
        for e, c, g in np.ndindex(len(paths), len(configs), len(grids)):
            fresh_cfg = ThetaConfig(**config_args[c % 2])
            fresh_grid = EvaluationGrid(*grid_args[g])
            fresh = BuildPlan(fresh_cfg, self.EPSILONS[e], fresh_grid)
            want[e, c, g] = build_sample(paths[e], fresh).values.tobytes()
        plans = {(e, c, g): BuildPlan(configs[c], self.EPSILONS[e], grids[g])
                 for e, c, g in want}
        for axis in range(3):  # epsilon, then config, then grid varies fastest
            order = sorted(want, key=lambda k, a=axis: k[:a] + k[a + 1:] + k[a:a + 1])
            for e, c, g in order:
                got = build_sample(paths[e], plans[e, c, g]).values
                assert got.tobytes() == want[e, c, g], (e, c, g)

    def test_table_never_changes(self):
        plan = BuildPlan(self.MIXED, 0.2, EvaluationGrid(T, 4))
        table, before = plan.levels, plan.levels.tobytes()
        assert table.shape == (3, _first_block_size(plan.needed) + 1)
        for rep in range(200):
            build_sample(sample_poisson_path(plan.needed, derive_stream(405, 0, rep)), plan)
            assert plan.levels is table
        stream = _FirstBlockTooShort(seed=405)
        path = sample_poisson_path(plan.needed, stream)
        assert len(stream.calls) >= 2 and path.jump_times.size + 1 > table.shape[1]
        build_sample(path, plan)
        assert plan.levels is table and table.tobytes() == before
        for name in [f.name for f in dataclasses.fields(plan)] + ["other"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(plan, name, None)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_plan_outlives_a_run(self, workers):
        config = RunConfig(
            theta=self.MIXED, epsilons=(0.4, 0.3), replications_M=40, master_seed=404,
            grid_points=4, workers=workers, checks=("covariance",),
        )
        run_experiment(config)
        gc.collect()
        assert not [obj for obj in gc.get_objects() if isinstance(obj, BuildPlan)]

    def test_grid_times_are_a_new_array_at_every_call(self):
        grid = EvaluationGrid(1.0, 4)
        for g in (grid, pickle.loads(pickle.dumps(grid))):
            times = g.times
            times[1] = 0.9  # the caller's own array
            assert g.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
            assert g.index_of(0.25) == 1


class TestPinnedBits:
    """Values recorded from ``build_sample`` before the per-(epsilon, grid)
    memo: 20 replications of (77, 1, r) on the benchmark's two configs."""

    CONFIGS = {
        "four_rational_decimal": ThetaConfig(
            cos_block=["1/2 pi", 2.2], sin_block=["1/2 pi", 2.2]
        ),
        "pi_rescaled": ThetaConfig(
            cos_block=["pi", 2.2], sin_block=["1/2 pi", 1.1], allow_pi_in_cos=True
        ),
    }

    @pytest.mark.parametrize(
        "name,eps,steps,digest",
        [
            ("four_rational_decimal", 0.4, 1,
             "e1fc52229fb44415000545fab92845d58f6de8e85ac94afca6fe81b1e80a5604"),
            ("four_rational_decimal", 0.2, 16,
             "92acac4c415030048b1c55f926dd529972988a75a4e5c92d4c8319bc2d6fb94e"),
            ("four_rational_decimal", 0.05, 64,
             "4f6e0970438edfcad7e6d22ed6c9304ed723f6b5956d8a50fa44aa7f7dc06c10"),
            ("pi_rescaled", 0.4, 1,
             "f57869f104d57aeeb578cfe80ac379fcc0b4cc4e78beecc9ff62f5428c6a18d3"),
            ("pi_rescaled", 0.2, 16,
             "71b8795dc8b0d4e093c1045023d98ca769ac1500099947f5fd6d39a0a1d576e9"),
            ("pi_rescaled", 0.05, 64,
             "d75b1c0653cbeefa9336120d0afd577950ec103ab3fea9e740d70a1a2b5d6366"),
        ],
    )
    def test_recorded_values(self, name, eps, steps, digest):
        cfg = self.CONFIGS[name]
        grid = EvaluationGrid(1.0, steps)
        horizon = map_to_path_time(1.0, eps)
        plan = BuildPlan(cfg, eps, grid)
        values = np.stack([
            build_sample(sample_poisson_path(horizon, derive_stream(77, 1, r)), plan).values
            for r in range(20)
        ])
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest


class TestSubBlocks:
    """``build_sample`` walks the jump segments ``SUB_BLOCK`` at a time. Each
    row still equals its own ``integral_from_zero`` bit for bit, wherever
    the sub-block boundaries fall, and the working memory of a call does
    not grow with the path."""

    CONFIGS = {
        "d5_mixed_pi": TestBuildSampleBitIdentity.MIXED,  # odd d, a pi-rescaled lane
        "d1_decimal": ThetaConfig(sin_block=[2.2]),
    }

    @staticmethod
    def _plan_and_path(cfg, n, seed):
        """A plan whose 2T/eps^2 is about n, and a path of exactly n sorted
        uniform jumps on (0, 2T/eps^2]."""
        plan = BuildPlan(cfg, math.sqrt(2.0 * T / (n + 0.5)), EvaluationGrid(T, 16))
        jumps = np.sort(derive_stream(seed, 0, n).random(n)) * plan.needed
        return plan, PoissonPath(horizon=plan.needed, jump_times=jumps)

    @pytest.mark.parametrize("name", CONFIGS)
    @pytest.mark.parametrize(
        "n", [SUB_BLOCK - 1, SUB_BLOCK, SUB_BLOCK + 1, 2 * SUB_BLOCK + 1]
    )
    def test_matches_reference_around_sub_block_sizes(self, name, n):
        plan, path = self._plan_and_path(self.CONFIGS[name], n, seed=601)
        assert path.jump_times.size == n
        _assert_matches_reference(path, plan)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_grid_times_on_the_last_jump_of_a_sub_block(self, name):
        # grid path times 0, N/4, N/2, 3N/4 and N, with N = 2T/eps^2 about
        # 2.5 sub-blocks. Jump SUB_BLOCK - 1, the last of the first sub-block,
        # sits at N/4 and jump 2 SUB_BLOCK - 1 at N/2: there the level is the
        # sub-block's end and the offset from its start exactly 0
        eps = math.sqrt(2.0 * T / (2.5 * SUB_BLOCK))
        plan = BuildPlan(self.CONFIGS[name], eps, EvaluationGrid(T, 4))
        xs = plan.xs
        jumps = np.concatenate((
            np.linspace(xs[1] / SUB_BLOCK, xs[1], SUB_BLOCK),
            np.linspace(xs[1], xs[2], SUB_BLOCK + 1)[1:],
            np.arange(xs[2] + 0.7, plan.needed, 1.3),
        ))
        path = PoissonPath(horizon=plan.needed, jump_times=jumps)
        counts = path.jump_times.searchsorted(xs, side="right")
        assert counts.tolist()[1:3] == [SUB_BLOCK, 2 * SUB_BLOCK]
        assert path.jump_times.size > 2 * SUB_BLOCK
        _assert_matches_reference(path, plan)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_zero_jump_path_at_a_long_horizon(self, name):
        plan = BuildPlan(self.CONFIGS[name], 0.01, EvaluationGrid(T, 16))
        _assert_matches_reference(
            PoissonPath(horizon=plan.needed, jump_times=np.empty(0)), plan
        )

    def test_long_paths_config_recorded_bits(self):
        # recorded before the sub-blocked prefix sums: 5 replications of
        # (12345, 1, r) on the benchmark's long_paths config at eps = 0.01,
        # paths of about 20k jumps, three sub-blocks each
        plan = BuildPlan(TestPinnedBits.CONFIGS["pi_rescaled"], 0.01,
                         EvaluationGrid(1.0, 16))
        paths = [sample_poisson_path(plan.needed, derive_stream(12345, 1, r))
                 for r in range(5)]
        assert min(path.jump_times.size for path in paths) > 2 * SUB_BLOCK
        values = np.stack([build_sample(path, plan).values for path in paths])
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "5c7618f5f189129674765017ca510ad5ce844c407053bd6ee77cac1c08fef26c"
        )

    @pytest.mark.parametrize(
        "cfg", [CONFIGS["d5_mixed_pi"], TestPinnedBits.CONFIGS["pi_rescaled"]], ids=["d5", "d4"]
    )
    def test_working_memory_is_bounded_by_the_sub_block(self, cfg):
        plan, path = self._plan_and_path(cfg, 3 * SUB_BLOCK, seed=602)
        build_sample(path, plan)  # the level table is the plan's, not the call's
        tracemalloc.start()
        try:
            build_sample(path, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per sub-block: the starts (8 bytes), the prefix rows (16 each), the
        # widths (8) and numpy's buffer casting them to complex (16); what
        # scales with the grid and the call's own objects fit in 16 KiB
        rows = plan.levels.shape[0]
        assert peak <= (8 + 16 * rows + 8 + 16) * (SUB_BLOCK + 1) + 16 * 1024


    @pytest.mark.parametrize(
        "cfg", [CONFIGS["d5_mixed_pi"], TestPinnedBits.CONFIGS["pi_rescaled"]], ids=["d5", "d4"]
    )
    @pytest.mark.parametrize("n", [3 * SUB_BLOCK, 5 * SUB_BLOCK // 2])  # a last sub-block full, half
    def test_widths_are_one_complex_buffer(self, cfg, n):
        plan, path = self._plan_and_path(cfg, n, seed=602)
        build_sample(path, plan)
        tracemalloc.start()
        try:
            build_sample(path, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per sub-block: the starts (8 bytes), the prefix rows (16 each) and
        # the widths, complex (16); no float widths and no buffer casting
        # them to complex, which would take 24 bytes more
        rows = plan.levels.shape[0]
        assert peak <= (8 + 16 * rows + 16) * (SUB_BLOCK + 1) + 16 * 1024


class TestSampleBlock:
    def test_shape_checked_once(self):
        cfg = ThetaConfig(cos_block=["1/2 pi"], sin_block=[1.1])
        grid = EvaluationGrid(T, 4)
        with pytest.raises(ValueError, match="does not match"):
            SampleBlock(epsilon=EPS, config=cfg, grid=grid, values=np.zeros((3, 3, 5)))
        with pytest.raises(ValueError, match="does not match"):
            SampleBlock(epsilon=EPS, config=cfg, grid=grid, values=np.zeros((2, 5)))

    def test_at_time_stacks_the_rows(self):
        cfg = ThetaConfig(cos_block=["1/2 pi"], sin_block=[1.1])
        grid = EvaluationGrid(T, 4)
        plan = BuildPlan(cfg, EPS, grid)
        rows = [build_sample(_path_for(seed=95, rep=r), plan) for r in range(3)]
        block = SampleBlock(
            epsilon=EPS, config=cfg, grid=grid, values=np.stack([r.values[0] for r in rows])
        )
        assert len(block) == 3
        want = np.stack([r.at_time(0.5)[0] for r in rows])
        assert np.array_equal(block.at_time(0.5), want)
        with pytest.raises(ValueError, match="not on the evaluation grid"):
            block.at_time(0.3)

    @pytest.mark.parametrize("cfg", [
        ThetaConfig(cos_block=["1/2 pi"]),
        ThetaConfig(cos_block=[2.2, "pi"], sin_block=[1.1], allow_pi_in_cos=True),
    ])
    def test_built_samples_pass_the_public_check(self, cfg):
        # build_sample skips the check; what it returns must pass it
        for steps in (1, 16):
            plan = BuildPlan(cfg, EPS, EvaluationGrid(T, steps))
            for rep in range(10):
                sample = build_sample(_path_for(rep=rep), plan)
                rebuilt = SampleBlock(epsilon=sample.epsilon, config=sample.config,
                                      grid=sample.grid, values=sample.values)
                assert rebuilt.values is sample.values
                assert (sample.epsilon, sample.config, sample.grid) == (
                    plan.epsilon, plan.config, plan.grid)

    def test_build_sample_is_one_row_of_generate_samples(self):
        theta = ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=[1.1])
        config = RunConfig(theta=theta, epsilons=(0.4, 0.3), replications_M=6,
                           master_seed=97, grid_points=4, checks=("covariance",))
        grid = EvaluationGrid(T, 4)
        block = generate_samples(config, grid, 1)
        plan = BuildPlan(theta, 0.3, grid)
        for r in range(6):
            sample = build_sample(sample_poisson_path(plan.needed, derive_stream(97, 1, r)), plan)
            assert isinstance(sample, SampleBlock)
            assert (len(sample), sample.dimension, sample.values.shape) == (1, 3, (1, 3, 5))
            assert sample.values[0].tobytes() == block.values[r].tobytes()

    def test_samples_and_blocks_compare_by_identity(self):
        cfg = ThetaConfig(cos_block=["1/2 pi"])
        grid = EvaluationGrid(T, 4)
        sample = build_sample(_path_for(seed=96), BuildPlan(cfg, EPS, grid))
        block = SampleBlock(epsilon=EPS, config=cfg, grid=grid, values=sample.values[0][None])
        for obj in (sample, block):
            clone = pickle.loads(pickle.dumps(obj))
            assert obj == obj and clone != obj
            assert {obj: 1}[obj] == 1
