"""Estimators and envelope evaluators, checked against closed-form oracles."""

import math
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from poisson_bm import (
    ConfigError,
    DegeneratePairError,
    DegenerateSampleError,
    Estimate,
    EvaluationGrid,
    RunConfig,
    SampleBlock,
    ThetaConfig,
    correlation_matrix,
    cross_moment,
    derive_stream,
    empirical_increment_covariance,
    fourth_moment_ratio,
    generate_samples,
    load_config,
    martingale_residual,
    normality_check,
    quadratic_variation,
    rate_fit,
    stroock_variance_check,
    structural_bound_eval,
)
from poisson_bm import stats
from poisson_bm.stats import NORMALITY_MIN_VALUES, _exact_sum, _ndtr

from oracles import (
    exact_cross_moment,
    exact_increment_variance,
    exact_mean_increment,
    exact_qv_mean,
)


def make_samples(cfg, eps, M, seed, T=1.0, steps=8):
    """The (M, d, steps + 1) block of replications 0 .. M-1 at one epsilon."""
    config = RunConfig(
        theta=cfg,
        epsilons=(eps,),
        replications_M=M,
        master_seed=seed,
        horizon_T=T,
        grid_points=steps,
        checks=("covariance",),
    )
    return generate_samples(config, EvaluationGrid(T, steps), 0)


class TestEstimate:
    def test_from_observations(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        est = Estimate.from_observations(xs)
        assert est.value == pytest.approx(2.5)
        assert est.std_error == pytest.approx(np.std(xs, ddof=1) / 2.0)
        assert est.replications == 4

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            Estimate.from_observations(np.array([1.0]))

    def test_std_error_scales_like_inverse_sqrt_m(self):
        # doubling M with a shared seed prefix shrinks the SE by ~1/sqrt(2)
        M = 400
        ratios = []
        for trial in range(10):
            xs = np.array(
                [float(derive_stream(50 + trial, 0, r).normal()) for r in range(2 * M)]
            )
            se_small = Estimate.from_observations(xs[:M]).std_error
            se_big = Estimate.from_observations(xs).std_error
            ratios.append(se_big / se_small)
        assert all(0.6 <= r <= 0.82 for r in ratios)


def _fsum_or_error(lane):
    """math.fsum of a lane as its bits, or the type of the error it raises."""
    try:
        return struct.pack("<d", math.fsum(lane))
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _random_lane(rng, n):
    """One seeded lane of length n from a mix of hard cases for an exact sum."""
    kind = rng.integers(9)
    x = rng.normal(size=n)
    if kind == 1:  # magnitudes from 1e-30 to 1e30
        x *= 10.0 ** rng.integers(-30, 31, size=n)
    elif kind == 2:  # heavy cancellation: pairs x, -x around a tiny residue
        half = x[: n // 2] * 10.0 ** rng.integers(-12, 13, size=n // 2)
        x = np.concatenate([half, -half, x[2 * (n // 2):] * 1e-25])
    elif kind == 3 and n >= 3:  # a sum exactly half an ulp from two doubles
        a = 1.0 + rng.integers(2**52) * 2.0**-52  # even and odd last bits
        m = (n - 3) // 2
        x = np.concatenate([[a, 2.0**-54, 2.0**-54], x[:m], -x[:m], np.zeros(n - 3 - 2 * m)])
    elif kind == 4:  # subnormals
        x = rng.integers(-(2**40), 2**40, size=n) * 5e-324
    elif kind == 5:  # zero sums, including all -0.0
        half = x[: n // 2]
        x = -np.zeros(n) if rng.integers(2) else np.concatenate([half, -half, np.zeros(n % 2)])
    elif kind == 6:  # fourth powers, as in the fourth-moment ratio
        x = x**4
    elif kind == 7 and n:  # nan, +-inf and inf - inf
        picks = rng.choice([math.nan, math.inf, -math.inf], size=rng.integers(1, 3))
        x[rng.integers(n, size=picks.size)] = picks
    elif kind == 8 and n >= 3:  # intermediate overflow, or a sum that overflows
        x[:3] = 1e308, 1e308, -1e308 if rng.integers(2) else 1e308
    rng.shuffle(x)
    return x


class TestCompensatedSum:
    def test_exactly_rounded(self):
        xs = [1e16, 1.0, -1e16, 1.0]
        assert _exact_sum(xs) == 2.0

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        xs = list(rng.normal(size=1000) * 10.0 ** rng.integers(-8, 8, size=1000))
        base = _exact_sum(xs)
        for _ in range(5):
            rng.shuffle(xs)
            assert _exact_sum(xs) == base

    @pytest.mark.parametrize(
        "xs",
        [
            [1.0, 2.0**-53],  # a tie: to the even neighbour, down
            [1.0 + 2.0**-52, 2.0**-53],  # a tie: to the even neighbour, up
            [1.0, 2.0**-53, 2.0**-200],  # just above the tie, a third partial sum
            [1.0, 2.0**-53, -(2.0**-200)],  # just below it
            [1.0, 2.0**-53, 2.0**-1074],  # just above it, below the extraction
            [-0.0, -0.0],
            [],
            [3e-310, -1e-310, 5e-324],
            [1e303, -1e303, 1.0],  # near overflow: math.fsum takes the lane
            [math.inf, 1.0],
            [math.nan, 1.0],
            [math.inf, -math.inf],
            [1e308, 1e308, -1e308],
            [1.7e308, 1.7e308],
        ],
    )
    def test_equals_fsum_on_edge_cases(self, xs):
        try:
            got = struct.pack("<d", _exact_sum(xs))
        except (ValueError, OverflowError) as exc:
            got = type(exc)
        assert got == _fsum_or_error(xs)

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_equals_fsum_bit_for_bit(self, axis):
        rng = np.random.default_rng(20260 + (axis or 0))
        for trial in range(400):
            if axis is None:  # one lane: all of a 1-D array
                lanes, n = 1, int(rng.choice([0, 1, 2, 3, 7, 100, 3000]))
            else:
                lanes, n = int(rng.integers(1, 5)), int(rng.choice([0, 1, 2, 5, 64]))
            block = np.array([_random_lane(rng, n) for _ in range(lanes)]).reshape(lanes, n)
            expected = [_fsum_or_error(row) for row in block.tolist()]
            values = {None: block[0], 0: block.T, 1: block}[axis]
            error = next((e for e in expected if isinstance(e, type)), None)
            if error is not None:  # the first failing lane's error, as fsum raises it
                with pytest.raises(error):
                    _exact_sum(values, axis)
                continue
            got = np.atleast_1d(_exact_sum(values, axis)).tolist()
            assert [struct.pack("<d", g) for g in got] == expected, (trial, axis)


class TestIncrementCovariance:
    def test_diagonal_matches_exact_second_moment(self):
        cfg = ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=[1.1])
        eps, M = 0.25, 2500
        samples = make_samples(cfg, eps, M, seed=210)
        cov = empirical_increment_covariance(samples)
        for c, (theta, kind) in enumerate(
            [(math.pi / 2, "cos"), (2.2, "cos"), (1.1, "sin")]
        ):
            # covariance vs the uncentered moment: the mean is O(eps), negligible
            target = exact_increment_variance(theta, kind, 0.0, 1.0, eps)
            est = cov[c][c]
            assert abs(est.value - target) <= 4.0 * est.std_error

    def test_off_diagonal_matches_exact_cross_moment(self):
        cfg = ThetaConfig(cos_block=["1/2 pi", 2.2])
        eps, M = 0.3, 2500
        samples = make_samples(cfg, eps, M, seed=211)
        cov = empirical_increment_covariance(samples)
        target = exact_cross_moment(math.pi / 2, 2.2, "coscos", 0.0, 1.0, eps)
        est = cov[0][1]
        assert abs(est.value - target) <= 4.0 * est.std_error
        assert cov[0][1].value == cov[1][0].value

    def test_degenerate_pair_correlation_exactly_one(self):
        cfg = ThetaConfig(
            cos_block=["2/5 pi", "8/5 pi"], sin_block=["2/5 pi", "8/5 pi"]
        )
        samples = make_samples(cfg, 0.4, 60, seed=212)
        cov = empirical_increment_covariance(samples)
        corr = correlation_matrix(cov)
        assert abs(corr[0, 1] - 1.0) <= 1e-12
        assert abs(corr[2, 3] + 1.0) <= 1e-12


# every estimator of a block, called on (0, 1] where it takes an increment
BLOCK_ESTIMATORS = {
    "empirical_increment_covariance": empirical_increment_covariance,
    "cross_moment": cross_moment,
    "martingale_residual": lambda b: martingale_residual(b, 0.0, 1.0),
    "fourth_moment_ratio": lambda b: fourth_moment_ratio(b, 0.0, 1.0),
    "stroock_variance_check": stroock_variance_check,
}

# the estimators of an increment over (s, t), with conditioning times
# that are themselves invalid where the estimator takes them
INCREMENT_ESTIMATORS = {
    "martingale_residual": lambda b, s, t: martingale_residual(
        b, s, t, conditioning=[1.0, 0.5]
    ),
    "fourth_moment_ratio": lambda b, s, t: fourth_moment_ratio(b, s, t),
}


class TestSharedRules:
    """Each rule every estimator obeys is stated once, in stats."""

    @pytest.fixture(scope="class")
    def block(self):
        cfg = ThetaConfig(cos_block=["pi"], sin_block=[1.0], allow_pi_in_cos=True)
        return make_samples(cfg, 0.4, 2, seed=213)

    @pytest.mark.parametrize("estimator", BLOCK_ESTIMATORS)
    def test_requires_two_observations(self, block, estimator):
        one = replace(block, values=block.values[:1])
        with pytest.raises(ValueError, match="^need at least 2 observations$"):
            BLOCK_ESTIMATORS[estimator](one)

    @pytest.mark.parametrize("s,t", [(0.5, 0.5), (1.0, 0.5)])
    @pytest.mark.parametrize("estimator", INCREMENT_ESTIMATORS)
    def test_rejects_s_not_below_t(self, block, estimator, s, t):
        # reported before the conditioning times are looked at
        with pytest.raises(ValueError, match=rf"^need s < t, got \({s}, {t}\)$"):
            INCREMENT_ESTIMATORS[estimator](block, s, t)


def _fsum_estimate(xs):
    """Estimate.from_observations with math.fsum: (mean, standard error)."""
    n = len(xs)
    mean = math.fsum(xs) / n
    return mean, math.sqrt(math.fsum((xs - mean) ** 2) / (n - 1) / n)


# increments (s, t) with their conditioning times: phi = 1 over the whole
# horizon, and the tanh product over an increment that starts at s > 0
WEIGHTED_INCREMENTS = [(0.0, 1.0, ()), (0.5, 1.0, (0.25, 0.5))]


def _deltas_and_phi(block, s, t, conditioning):
    """The (M, d) increments over (s, t) and phi per replication: the
    tanh product of the coordinate sums at the conditioning times."""
    grid = block.grid
    deltas = block.values[:, :, grid.index_of(t)] - block.values[:, :, grid.index_of(s)]
    w = np.ones(len(block))
    for u in conditioning:
        w *= np.tanh(block.values[:, :, grid.index_of(u)].sum(axis=1))
    return deltas, w


class TestEstimatorsMatchFsum:
    """Every estimator's reductions equal the same formula with math.fsum."""

    @pytest.fixture(
        scope="class",
        params=[
            ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=["1/2 pi", 2.2]),
            ThetaConfig(cos_block=["1/3 pi", 1.1, 2.2, 0.7], sin_block=["1/2 pi", 2.5, 1.3]),
        ],
        ids=["d4", "d7"],
    )
    def block(self, request):
        return make_samples(request.param, 0.3, 600, seed=230, steps=8)

    def test_covariance_values_and_std_errors(self, block):
        deltas = block.values[:, :, -1] - block.values[:, :, 0]
        M, d = deltas.shape
        centered = deltas - np.array([math.fsum(deltas[:, c]) / M for c in range(d)])
        cov = empirical_increment_covariance(block)
        for i in range(d):
            for j in range(d):
                w = centered[:, i] * centered[:, j]
                _, se = _fsum_estimate(w)
                assert (cov[i][j].value, cov[i][j].std_error) == (math.fsum(w) / (M - 1), se)

    def test_quadratic_variation_per_row(self, block):
        qvs = quadratic_variation(block)
        assert qvs.shape == block.values.shape[:2]
        for c in range(block.config.dimension):
            squares = np.diff(block.values[:, c, :], axis=1) ** 2
            expected = [math.fsum(row) for row in squares]
            assert qvs[:, c].tolist() == expected

    def test_normality_moments(self, block):
        deltas = block.values[:, :, -1] - block.values[:, :, 0]
        for c in range(block.config.dimension):
            xs = deltas[:, c]
            n = xs.size
            mean = math.fsum(xs) / n
            var = math.fsum((xs - mean) ** 2) / n
            z = (xs - mean) / math.sqrt(var)
            rep = normality_check(xs)
            assert rep.skewness == math.fsum(z**3) / n
            assert rep.excess_kurtosis == math.fsum(z**4) / n - 3.0

    # cross_moment reads (0, T) with phi = 1, the first weighted increment
    @pytest.mark.parametrize("s,t,conditioning", WEIGHTED_INCREMENTS[:1], ids=["one"])
    def test_cross_moment_every_pair(self, block, s, t, conditioning):
        deltas, w = _deltas_and_phi(block, s, t, conditioning)
        d = block.config.dimension
        ests = cross_moment(block)
        assert list(ests) == [(i, j) for i in range(d) for j in range(i + 1, d)]
        for (i, j), est in ests.items():
            expected = _fsum_estimate(w * deltas[:, i] * deltas[:, j])
            assert (est.value, est.std_error) == expected, (i, j)

    @pytest.mark.parametrize("s,t,conditioning", WEIGHTED_INCREMENTS, ids=["one", "tanh"])
    def test_martingale_residual_every_component(self, block, s, t, conditioning):
        deltas, w = _deltas_and_phi(block, s, t, conditioning)
        ests = martingale_residual(block, s, t, conditioning)
        assert len(ests) == block.config.dimension
        for c, est in enumerate(ests):
            assert (est.value, est.std_error) == _fsum_estimate(w * deltas[:, c]), c

    def test_fourth_moment_ratio_every_dyadic_increment(self, block):
        for level in range(3):
            pieces = 2**level
            for k in range(pieces):
                s, t = k / pieces, (k + 1) / pieces
                deltas, _ = _deltas_and_phi(block, s, t, ())
                ests = fourth_moment_ratio(block, s, t)
                assert len(ests) == block.config.dimension
                for c, est in enumerate(ests):
                    expected = _fsum_estimate(deltas[:, c] ** 4 / (t - s) ** 2)
                    assert (est.value, est.std_error) == expected, (s, t, c)

    def test_one_component(self):
        # d = 1 has no pair; the per-component estimators return one estimate
        block = make_samples(ThetaConfig(cos_block=[2.2]), 0.3, 50, seed=234, steps=8)
        assert cross_moment(block) == {}
        deltas, _ = _deltas_and_phi(block, 0.0, 1.0, ())
        (est,) = martingale_residual(block, 0.0, 1.0)
        assert (est.value, est.std_error) == _fsum_estimate(deltas[:, 0])
        (est,) = fourth_moment_ratio(block, 0.0, 1.0)
        assert (est.value, est.std_error) == _fsum_estimate(deltas[:, 0] ** 4)


class TestWindowIsTheGrid:
    def test_fixed_window_estimators_read_zero_to_the_last_grid_time(self):
        # T is the grid's last time, 0.5 here; no second horizon to disagree with
        cfg = ThetaConfig(cos_block=["pi", 1.1], sin_block=[2.2], allow_pi_in_cos=True)
        values = np.random.default_rng(240).normal(size=(50, 3, 3))
        block = SampleBlock(epsilon=0.3, config=cfg, grid=EvaluationGrid(0.5, 2),
                            values=values)
        assert block.grid.horizon_T == 0.5
        deltas = values[:, :, 2] - values[:, :, 0]
        centered = deltas - np.array([math.fsum(deltas[:, c]) / 50 for c in range(3)])
        cov = empirical_increment_covariance(block)
        for i in range(3):
            for j in range(3):
                w = centered[:, i] * centered[:, j]
                assert cov[i][j].value == math.fsum(w) / 49, (i, j)
        qvs = quadratic_variation(block)
        for c in range(3):
            squares = np.diff(values[:, c, :], axis=1) ** 2
            assert qvs[:, c].tolist() == [math.fsum(row) for row in squares]
        x = values[:, 0, 2]
        centered_pi = x - math.fsum(x) / 50
        assert stroock_variance_check(block).value == math.fsum(centered_pi**2) / 49


class TestCrossMoment:
    def test_matches_exact_value_each_kind(self):
        cfg = ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=["1/2 pi", 2.2])
        eps, M = 0.3, 3000
        samples = make_samples(cfg, eps, M, seed=215)
        t1, t2 = math.pi / 2, 2.2
        cases = [
            (0, 1, exact_cross_moment(t1, t2, "coscos", 0.0, 1.0, eps)),
            (2, 3, exact_cross_moment(t1, t2, "sinsin", 0.0, 1.0, eps)),
            (0, 3, exact_cross_moment(t1, t2, "cossin", 0.0, 1.0, eps)),
        ]
        ests = cross_moment(samples)
        for i, j, target in cases:
            est = ests[i, j]
            assert abs(est.value - target) <= 4.0 * est.std_error, (i, j)


class TestStructuralBound:
    def test_hand_computed_example(self):
        # d(pi/4) = 1 - sqrt(2)/2, d(3pi/4) = 1 + sqrt(2)/2, d(pi/2) = 1;
        # 1/d(pi/4) + 1/d(3pi/4) = (2 + sqrt(2)) + (2 - sqrt(2)) = 4
        total = structural_bound_eval(math.pi / 2, math.pi / 4, 0.1)
        # (1/d(pi/4)) * 4 + (1/d(pi/2)) * 4, since 1/d(pi/4) + 1/d(3pi/4)
        # = (2 + sqrt(2)) + (2 - sqrt(2)) = 4
        d_quarter = 1.0 - math.cos(math.pi / 4)
        expected = 0.01 * ((1.0 / d_quarter) * 4.0 + 4.0)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_symmetric_under_swap(self):
        a = structural_bound_eval(0.9, 2.3, 0.2)
        b = structural_bound_eval(2.3, 0.9, 0.2)
        assert a == b  # exact: math.fsum of the same factors

    def test_halving_epsilon_quarters_total_exactly(self):
        full = structural_bound_eval(0.9, 2.3, 0.2)
        half = structural_bound_eval(0.9, 2.3, 0.1)
        assert half == full / 4.0

    def test_sum_degenerate_pair_rejected(self):
        with pytest.raises(DegeneratePairError, match="theta_i \\+ theta_j"):
            structural_bound_eval("1/2 pi", "3/2 pi", 0.1)

    def test_equal_pair_rejected(self):
        with pytest.raises(DegeneratePairError, match="theta_i - theta_j"):
            structural_bound_eval(1.3, 1.3, 0.1)

    @staticmethod
    def envelope(angles, epsilon):
        """The documented total for the angles th_i, th_j, th_i - th_j, th_i + th_j."""
        inv_i, inv_j, inv_diff, inv_sum = (1.0 / (1.0 - math.cos(a)) for a in angles)
        return (epsilon * epsilon) * math.fsum(
            [inv_j * inv_diff, inv_j * inv_sum, inv_i * inv_diff, inv_i * inv_sum])

    def test_rational_sum_past_a_float_taken_exactly_mod_two_pi(self):
        # (2e307 + 1/2) pi + 4e307 pi overflows a float; exactly it is pi/2 mod 2 pi
        theta = ThetaConfig(cos_block=[f"{4 * 10**307 + 1}/2 pi", f"{4 * 10**307} pi"])
        ti, tj = (a.radians for a in theta.cos_block)
        assert math.isinf(ti + tj) and math.isfinite(ti - tj)
        got = structural_bound_eval(*theta.cos_block, 0.1)
        assert got == self.envelope([ti, tj, ti - tj, math.pi / 2], 0.1)

    def test_decimal_sum_past_a_float_taken_from_remainders(self):
        ti, tj = 1.5e308, 1.6e308
        total = math.remainder(ti, 2 * math.pi) + math.remainder(tj, 2 * math.pi)
        got = structural_bound_eval(ti, tj, 0.1)
        assert got == self.envelope([ti, tj, ti - tj, total], 0.1)


class TestRateFit:
    def test_exact_quadratic_gives_slope_two(self):
        eps = [0.4, 0.2, 0.1]
        vals = [7.0 * e**2 for e in eps]
        assert rate_fit(eps, vals) == pytest.approx(2.0, abs=1e-12)

    def test_constant_gives_slope_zero(self):
        assert rate_fit([0.4, 0.2, 0.1], [0.5, 0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            rate_fit([0.4, 0.2], [1.0, 0.5])

    def test_needs_spread(self):
        with pytest.raises(ValueError, match="range"):
            rate_fit([0.4, 0.35, 0.3], [1.0, 0.9, 0.8])

    def test_needs_decreasing_epsilons(self):
        with pytest.raises(ValueError):
            rate_fit([0.1, 0.2, 0.4], [1.0, 0.9, 0.8])


class TestQuadraticVariation:
    def _zero_block(self):
        # sin(pi * N) is identically zero, an exactly-null component
        cfg = ThetaConfig(sin_block=["pi"])
        return make_samples(cfg, 0.4, 2, seed=218)

    def test_zero_path(self):
        block = self._zero_block()
        assert np.array_equal(quadratic_variation(block), [[0.0], [0.0]])

    def test_invariant_under_constant_shift(self):
        cfg = ThetaConfig(cos_block=[2.2])
        block = make_samples(cfg, 0.3, 2, seed=219)
        shifted = replace(block, values=block.values + 5.0)
        a = quadratic_variation(block)
        b = quadratic_variation(shifted)
        assert a == pytest.approx(b, rel=1e-9)

    def test_mean_matches_exact_value(self):
        cfg = ThetaConfig(cos_block=[2.2])
        eps, M, steps = 0.2, 1500, 8
        block = make_samples(cfg, eps, M, seed=220, steps=steps)
        qvs = quadratic_variation(block)
        assert qvs.shape == (M, 1)
        est = Estimate.from_observations(qvs[:, 0])
        target = exact_qv_mean(2.2, "cos", block.grid.times, eps)
        assert abs(est.value - target) <= 4.0 * est.std_error

    def test_matches_index_of_lookup(self):
        # each row is the exact sum over that replication's own path, at
        # every grid time in order
        cfg = ThetaConfig(cos_block=[2.2], sin_block=["1/2 pi"])
        block = make_samples(cfg, 0.2, 3, seed=222, steps=16)
        grid = block.grid
        idx = [grid.index_of(t) for t in grid.times]
        qvs = quadratic_variation(block)
        for c in range(2):
            for r in range(len(block)):
                expected = _exact_sum(np.diff(block.values[r, c, idx]) ** 2)
                assert qvs[r, c] == expected

    def _random_walks(self, replications, dimension, steps=64):
        rng = np.random.default_rng(223)
        values = np.cumsum(rng.standard_normal((replications, dimension, steps + 1)), axis=2)
        cfg = ThetaConfig(cos_block=[2.2] * dimension)
        return SampleBlock(0.2, cfg, EvaluationGrid(1.0, steps), values)

    def test_chunks_of_rows_keep_every_bit(self):
        # two whole chunks and a last one of fewer rows than steps, which
        # _exact_sum reduces along the other axis
        block = self._random_walks(2 * (stats.QV_CHUNK_ELEMENTS // 64) + 30, 2)
        whole = np.stack([_exact_sum(np.diff(block.values[:, c], axis=1) ** 2, axis=1)
                          for c in range(2)], axis=1)
        assert quadratic_variation(block).tobytes() == whole.tobytes()

    def test_working_memory_stays_under_half_the_block(self):
        block = self._random_walks(60_000, 1)
        tracemalloc.start()
        try:
            quadratic_variation(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block.values.nbytes / 2


class TestFourthMoment:
    def test_zero_increments(self):
        cfg = ThetaConfig(sin_block=["pi"])
        samples = make_samples(cfg, 0.4, 50, seed=221)
        (est,) = fourth_moment_ratio(samples, 0.0, 1.0)
        assert est.value == 0.0

    def test_requires_ordered_times(self):
        cfg = ThetaConfig(cos_block=[1.0])
        samples = make_samples(cfg, 0.4, 10, seed=222)
        with pytest.raises(ValueError):
            fourth_moment_ratio(samples, 1.0, 0.5)


class TestNormalityCheck:
    def test_exact_normal_sample_passes(self):
        rng = derive_stream(223, 0, 0)
        rep = normality_check(rng.normal(size=20000))
        assert abs(rep.skewness) < 0.06
        assert abs(rep.excess_kurtosis) < 0.12
        assert rep.ks_statistic < 1.63 / math.sqrt(20000)

    def test_ks_calibration_over_seeds(self):
        # the 1% critical value should reject almost never on true normals
        n, hits = 5000, 0
        trials = 40
        for seed in range(trials):
            rng = derive_stream(224, 0, seed)
            rep = normality_check(rng.normal(size=n))
            if rep.ks_statistic < 1.63 / math.sqrt(n):
                hits += 1
        assert hits >= int(0.95 * trials)

    def test_ks_detects_non_normal(self):
        rng = derive_stream(225, 0, 0)
        rep = normality_check(rng.exponential(size=5000))
        assert rep.ks_statistic > 1.63 / math.sqrt(5000)

    def test_agrees_with_scipy(self):
        sps = pytest.importorskip("scipy.stats")

        rng = derive_stream(226, 0, 0)
        xs = rng.normal(size=1500)
        rep = normality_check(xs)
        z = (xs - xs.mean()) / math.sqrt(np.mean((xs - xs.mean()) ** 2))
        want = sps.kstest(z, "norm").statistic
        assert rep.ks_statistic == pytest.approx(want, rel=1e-9)
        assert rep.skewness == pytest.approx(sps.skew(xs), rel=1e-9)
        assert rep.excess_kurtosis == pytest.approx(sps.kurtosis(xs), rel=1e-9)

    def test_degenerate_input_rejected(self):
        with pytest.raises(DegenerateSampleError, match="zero variance"):
            normality_check(np.full(500, 3.14))

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            normality_check(np.arange(50, dtype=float))

    def test_the_run_and_the_check_refuse_below_one_minimum(self):
        M = NORMALITY_MIN_VALUES - 1
        config = dict(theta=ThetaConfig(cos_block=[1.0]), epsilons=(0.2,), master_seed=1,
                      checks=("normality",))
        with pytest.raises(ConfigError, match=rf"needs replications_M >= {M + 1}; raise M"):
            RunConfig(**config, replications_M=M)
        with pytest.raises(ValueError, match=rf"^need at least {M + 1} values, got {M}$"):
            normality_check(np.arange(M, dtype=float))
        RunConfig(**config, replications_M=M + 1)
        normality_check(np.arange(M + 1, dtype=float))


def _ulps_around(a, k=200):
    """The 2k + 1 consecutive floats centred on the nonzero ``a``."""
    bits = np.array(a, dtype=np.float64).view(np.int64)
    return (bits + np.arange(-k, k + 1)).view(np.float64)


class TestNdtr:
    """_ndtr gives scipy.special.ndtr's bits, every branch of Cephes ndtr."""

    @staticmethod
    def assert_same_bits(xs):
        ndtr = pytest.importorskip("scipy.special").ndtr
        xs = np.asarray(xs, dtype=np.float64)
        got, want = _ndtr(xs), ndtr(xs)
        differ = got.view(np.int64) != want.view(np.int64)
        assert not differ.any(), list(zip(xs[differ][:5], got[differ][:5], want[differ][:5]))

    @pytest.mark.parametrize("x_edge", [stats._SQRTH, 1.0, 8.0],
                             ids=["erf_to_erfc", "one_minus_erf_to_p_q", "p_q_to_r_s"])
    def test_branch_boundaries(self, x_edge):
        # the branches switch on |a * sqrt(1/2)|: take a on both sides, both signs
        a = x_edge / stats._SQRTH
        self.assert_same_bits(np.concatenate([_ulps_around(a), _ulps_around(-a)]))

    def test_underflow_tail(self):
        # exp(-x^2) leaves the float range near a = -37.7; the CDF is 0 below -38.5
        xs = np.concatenate([np.linspace(-40.0, -36.0, 400_001), _ulps_around(-38.5),
                             -_ulps_around(np.sqrt(2 * stats._MAXLOG))])
        got = _ndtr(xs)
        assert got[xs < -38.5].max() == 0.0 and got[xs > -37.5].min() > 0.0
        self.assert_same_bits(xs)

    def test_signed_zeros_infinities_and_nan(self):
        xs = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300]
        got = _ndtr(np.array(xs))
        assert got[:4].tolist() == [0.5, 0.5, 1.0, 0.0] and math.isnan(got[4])
        self.assert_same_bits(xs)

    def test_wide_grid(self):
        self.assert_same_bits(np.linspace(-12.0, 12.0, 240_001))

    def test_golden_demo_increments(self, monkeypatch):
        # the sorted standardised increments the demo's KS distances read
        seen = []

        def recording_ndtr(zs):
            seen.append(zs)
            return _ndtr(zs)

        monkeypatch.setattr(stats, "_ndtr", recording_ndtr)
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / "demo.cfg")
        grid = EvaluationGrid(config.horizon_T, config.grid_points)
        for eps_index in range(len(config.epsilons)):
            block = generate_samples(config, grid, eps_index)
            deltas = block.at_time(grid.horizon_T) - block.at_time(0.0)
            for c in range(config.theta.dimension):
                normality_check(deltas[:, c])
        assert len(seen) == len(config.epsilons) * config.theta.dimension
        self.assert_same_bits(np.concatenate(seen))


class TestMartingaleResidual:
    def test_deterministic_zero_path(self):
        cfg = ThetaConfig(sin_block=["pi"])
        samples = make_samples(cfg, 0.4, 30, seed=227)
        (est,) = martingale_residual(samples, 0.5, 1.0)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_mean_increment_matches_exact_value(self):
        # at large eps the drift of one increment is well off zero; the
        # estimator must land on the closed-form mean, not on zero
        cfg = ThetaConfig(cos_block=["1/2 pi"])
        eps, M, T, steps = 0.8, 4000, 0.32, 16
        samples = make_samples(cfg, eps, M, seed=228, T=T, steps=steps)
        s, t = 0.02, 0.3
        (est,) = martingale_residual(samples, s, t)
        target = exact_mean_increment(math.pi / 2, "cos", s, t, eps)
        assert abs(target) > 0.05  # the case is genuinely non-degenerate
        assert abs(est.value - target) <= 4.0 * est.std_error

    def test_bounded_weight_in_band(self):
        cfg = ThetaConfig(cos_block=["1/2 pi"], sin_block=[1.1])
        samples = make_samples(cfg, 0.15, 2000, seed=229)
        for est in martingale_residual(samples, 0.5, 1.0, conditioning=[0.25, 0.5]):
            assert abs(est.value) <= 4.0 * est.std_error

    @pytest.mark.parametrize(
        "conditioning, message",
        [([0.25, 0.75], "must not exceed the increment start"), ([0.5, 0.25], "nondecreasing")],
    )
    def test_bad_conditioning_times_rejected(self, conditioning, message):
        cfg = ThetaConfig(cos_block=[1.0])
        samples = make_samples(cfg, 0.4, 10, seed=229)
        with pytest.raises(ValueError, match=message):
            martingale_residual(samples, 0.5, 1.0, conditioning=conditioning)


class TestStroockVariance:
    def test_no_pi_component_rejected(self):
        cfg = ThetaConfig(cos_block=[1.0])
        samples = make_samples(cfg, 0.4, 10, seed=230)
        with pytest.raises(ValueError, match="angle-pi"):
            stroock_variance_check(samples)

    def test_unrescaled_matches_exact_second_moment(self):
        cfg = ThetaConfig(cos_block=["pi"])
        eps, M = 0.2, 2000
        samples = make_samples(cfg, eps, M, seed=232)
        est = stroock_variance_check(samples)
        target = exact_increment_variance(math.pi, "cos", 0.0, 1.0, eps)
        assert abs(est.value - target) <= 4.0 * est.std_error
        assert target == pytest.approx(2.0, abs=0.05)

    # the benchmark's long_paths config at M = 300, and the demo's with an
    # angle-pi cosine that is not the first component
    IDENTITY_CONFIGS = {
        "long_paths": dict(
            theta=ThetaConfig(["pi", 2.2], ["1/2 pi", 1.1], allow_pi_in_cos=True),
            epsilons=(0.02, 0.01), replications_M=300, grid_points=16),
        "demo_with_pi": dict(
            theta=ThetaConfig(["1/2 pi", "pi"], ["1/2 pi"], allow_pi_in_cos=True),
            epsilons=(0.2, 0.1), replications_M=2000, grid_points=16),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", IDENTITY_CONFIGS)
    def test_is_the_covariance_diagonal(self, name, workers):
        # the stroock check is the covariance's diagonal entry of the first
        # angle-pi cosine, bit for bit, read against another target
        config = RunConfig(**self.IDENTITY_CONFIGS[name], master_seed=12345, workers=workers,
                           checks=("covariance",))
        c = config.theta.pi_components[0]
        for eps_index in range(len(config.epsilons)):
            block = generate_samples(config, config.grid, eps_index)
            est = stroock_variance_check(block)
            diagonal = empirical_increment_covariance(block)[c][c]
            assert (est.value, est.std_error) == (diagonal.value, diagonal.std_error)
            assert est.replications == diagonal.replications == config.replications_M

    def test_rescaled_halves_the_variance(self):
        eps, M = 0.2, 2000
        plain = make_samples(ThetaConfig(cos_block=["pi"]), eps, M, seed=233)
        scaled = make_samples(
            ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True), eps, M, seed=233
        )
        v_plain = stroock_variance_check(plain)
        v_scaled = stroock_variance_check(scaled)
        assert v_scaled.value == pytest.approx(v_plain.value / 2.0, rel=1e-12)
