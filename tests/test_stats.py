"""Estimators and envelope evaluators, checked against closed-form oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from poisson_bm import (
    DegeneratePairError,
    DegenerateSampleError,
    Estimate,
    EvaluationGrid,
    RunConfig,
    ThetaConfig,
    compensated_sum,
    correlation_matrix,
    cross_moment,
    derive_stream,
    empirical_increment_covariance,
    fourth_moment_ratio,
    generate_samples,
    martingale_residual,
    normality_check,
    quadratic_variation,
    rate_fit,
    stroock_variance_check,
    structural_bound_eval,
)
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
    return generate_samples(config, EvaluationGrid.uniform(T, steps), 0)


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


class TestCompensatedSum:
    def test_exactly_rounded(self):
        xs = [1e16, 1.0, -1e16, 1.0]
        assert compensated_sum(xs) == 2.0

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        xs = list(rng.normal(size=1000) * 10.0 ** rng.integers(-8, 8, size=1000))
        base = compensated_sum(xs)
        for _ in range(5):
            rng.shuffle(xs)
            assert compensated_sum(xs) == base


class TestIncrementCovariance:
    def test_diagonal_matches_exact_second_moment(self):
        cfg = ThetaConfig(cos_block=["1/2 pi", 2.2], sin_block=[1.1])
        eps, M = 0.25, 2500
        samples = make_samples(cfg, eps, M, seed=210)
        cov = empirical_increment_covariance(samples, 0.0, 1.0)
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
        cov = empirical_increment_covariance(samples, 0.0, 1.0)
        target = exact_cross_moment(math.pi / 2, 2.2, "coscos", 0.0, 1.0, eps)
        est = cov[0][1]
        assert abs(est.value - target) <= 4.0 * est.std_error
        assert cov[0][1].value == cov[1][0].value

    def test_degenerate_pair_correlation_exactly_one(self):
        cfg = ThetaConfig(
            cos_block=["2/5 pi", "8/5 pi"], sin_block=["2/5 pi", "8/5 pi"]
        )
        samples = make_samples(cfg, 0.4, 60, seed=212)
        cov = empirical_increment_covariance(samples, 0.0, 1.0)
        corr = correlation_matrix(cov)
        assert abs(corr[0, 1] - 1.0) <= 1e-12
        assert abs(corr[2, 3] + 1.0) <= 1e-12


# every estimator of a block, called on (0, 1] where it takes an increment
BLOCK_ESTIMATORS = {
    "empirical_increment_covariance": lambda b: empirical_increment_covariance(b, 0.0, 1.0),
    "cross_moment": lambda b: cross_moment(b, 0, 1, 0.0, 1.0),
    "martingale_residual": lambda b: martingale_residual(b, 0, 0.0, 1.0),
    "fourth_moment_ratio": lambda b: fourth_moment_ratio(b, 0, 0.0, 1.0),
    "stroock_variance_check": lambda b: stroock_variance_check(b, 1.0),
}

# the estimators of an increment over (s, t), with conditioning times
# that are themselves invalid where the estimator takes them
INCREMENT_ESTIMATORS = {
    "empirical_increment_covariance": lambda b, s, t: empirical_increment_covariance(b, s, t),
    "cross_moment": lambda b, s, t: cross_moment(b, 0, 1, s, t, conditioning=[1.0, 0.5]),
    "martingale_residual": lambda b, s, t: martingale_residual(
        b, 0, s, t, conditioning=[1.0, 0.5]
    ),
    "fourth_moment_ratio": lambda b, s, t: fourth_moment_ratio(b, 0, s, t),
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


class TestCrossMoment:
    def test_diagonal_with_constant_weight_rejected(self):
        cfg = ThetaConfig(cos_block=[1.0, 2.0])
        samples = make_samples(cfg, 0.4, 10, seed=214)
        with pytest.raises(ValueError, match="quadratic-variation"):
            cross_moment(samples, 0, 0, 0.0, 1.0)

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
        for i, j, target in cases:
            est = cross_moment(samples, i, j, 0.0, 1.0)
            assert abs(est.value - target) <= 4.0 * est.std_error, (i, j)

    def test_bounded_weight_stays_in_band(self):
        cfg = ThetaConfig(cos_block=["1/2 pi"], sin_block=[2.2])
        samples = make_samples(cfg, 0.15, 2000, seed=216)
        est = cross_moment(samples, 0, 1, 0.5, 1.0, conditioning=[0.25, 0.5])
        assert abs(est.value) <= 4.0 * est.std_error

    def test_conditioning_after_increment_start_rejected(self):
        cfg = ThetaConfig(cos_block=[1.0, 2.0])
        samples = make_samples(cfg, 0.4, 10, seed=217)
        with pytest.raises(ValueError, match="must not exceed the increment start"):
            cross_moment(samples, 0, 1, 0.5, 1.0, conditioning=[0.75])

    def test_decreasing_conditioning_times_rejected(self):
        cfg = ThetaConfig(cos_block=[1.0, 2.0])
        samples = make_samples(cfg, 0.4, 10, seed=217)
        with pytest.raises(ValueError, match="nondecreasing"):
            cross_moment(samples, 0, 1, 0.5, 1.0, conditioning=[0.5, 0.25])

    def test_diagonal_with_conditioning_accepted(self):
        cfg = ThetaConfig(cos_block=[1.0, 2.0])
        samples = make_samples(cfg, 0.4, 10, seed=217)
        est = cross_moment(samples, 0, 0, 0.5, 1.0, conditioning=[0.25])
        assert math.isfinite(est.value)


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
        assert a == b  # exact: compensated sum of the same factors

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


class TestRateFit:
    def test_exact_quadratic_gives_slope_two(self):
        eps = [0.4, 0.2, 0.1]
        vals = [7.0 * e**2 for e in eps]
        assert rate_fit(eps, vals) == pytest.approx(2.0, abs=1e-12)

    def test_constant_gives_slope_zero(self):
        assert rate_fit([0.4, 0.2, 0.1], [0.5, 0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_flooring_at_std_error(self):
        eps = [0.4, 0.2, 0.1]
        vals = [0.16, 0.04, 1e-9]
        ses = [1e-3, 1e-3, 1e-2]
        floored = rate_fit(eps, vals, ses)
        raw = rate_fit(eps, vals)
        assert floored < raw  # the tiny last point no longer drags the slope up
        assert floored == pytest.approx(rate_fit(eps, [0.16, 0.04, 1e-2]), rel=1e-12)

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
        assert np.array_equal(quadratic_variation(block, 0, block.grid.times), [0.0, 0.0])

    def test_invariant_under_constant_shift(self):
        cfg = ThetaConfig(cos_block=[2.2])
        block = make_samples(cfg, 0.3, 2, seed=219)
        shifted = replace(block, values=block.values + 5.0)
        a = quadratic_variation(block, 0, block.grid.times)
        b = quadratic_variation(shifted, 0, block.grid.times)
        assert a == pytest.approx(b, rel=1e-9)

    def test_mean_matches_exact_value(self):
        cfg = ThetaConfig(cos_block=[2.2])
        eps, M, steps = 0.2, 1500, 8
        block = make_samples(cfg, eps, M, seed=220, steps=steps)
        partition = block.grid.times
        qvs = quadratic_variation(block, 0, partition)
        assert qvs.shape == (M,)
        est = Estimate.from_observations(qvs)
        target = exact_qv_mean(2.2, "cos", partition, eps)
        assert abs(est.value - target) <= 4.0 * est.std_error

    def test_partition_validation(self):
        block = self._zero_block()
        with pytest.raises(ValueError):
            quadratic_variation(block, 0, [0.0])
        with pytest.raises(ValueError):
            quadratic_variation(block, 0, [0.5, 1.0])

    def test_off_grid_and_unsorted_partitions_rejected(self):
        block = self._zero_block()  # grid 0, 1/8, ..., 1
        with pytest.raises(ValueError, match="not on the evaluation grid"):
            quadratic_variation(block, 0, [0.0, 0.3, 1.0])
        with pytest.raises(ValueError, match="not on the evaluation grid"):
            quadratic_variation(block, 0, [0.0, 0.5, 2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            quadratic_variation(block, 0, [0.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="strictly increasing"):
            quadratic_variation(block, 0, [0.0, 0.5, 0.5])

    def test_off_grid_time_is_named_as_a_plain_float(self):
        block = self._zero_block()
        with pytest.raises(ValueError, match=r"^time 0\.3 is not on the evaluation grid$"):
            quadratic_variation(block, 0, np.array([0.0, 0.3, 1.0]))

    def test_matches_index_of_lookup(self):
        # each row is the exact sum over that replication's own path
        cfg = ThetaConfig(cos_block=[2.2], sin_block=["1/2 pi"])
        block = make_samples(cfg, 0.2, 3, seed=222, steps=16)
        grid = block.grid
        for partition in (grid.times, list(grid.times[::4]), [0.0, 0.25, 1.0]):
            idx = [grid.index_of(t) for t in partition]
            for c in range(2):
                qvs = quadratic_variation(block, c, partition)
                for r in range(len(block)):
                    expected = compensated_sum(np.diff(block.values[r, c, idx]) ** 2)
                    assert qvs[r] == expected


class TestFourthMoment:
    def test_zero_increments(self):
        cfg = ThetaConfig(sin_block=["pi"])
        samples = make_samples(cfg, 0.4, 50, seed=221)
        est = fourth_moment_ratio(samples, 0, 0.0, 1.0)
        assert est.value == 0.0

    def test_requires_ordered_times(self):
        cfg = ThetaConfig(cos_block=[1.0])
        samples = make_samples(cfg, 0.4, 10, seed=222)
        with pytest.raises(ValueError):
            fourth_moment_ratio(samples, 0, 1.0, 0.5)


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
        from scipy import stats as sps

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


class TestMartingaleResidual:
    def test_deterministic_zero_path(self):
        cfg = ThetaConfig(sin_block=["pi"])
        samples = make_samples(cfg, 0.4, 30, seed=227)
        est = martingale_residual(samples, 0, 0.5, 1.0)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_mean_increment_matches_exact_value(self):
        # at large eps the drift of one increment is well off zero; the
        # estimator must land on the closed-form mean, not on zero
        cfg = ThetaConfig(cos_block=["1/2 pi"])
        eps, M, T, steps = 0.8, 4000, 0.32, 16
        samples = make_samples(cfg, eps, M, seed=228, T=T, steps=steps)
        s, t = 0.02, 0.3
        est = martingale_residual(samples, 0, s, t)
        target = exact_mean_increment(math.pi / 2, "cos", s, t, eps)
        assert abs(target) > 0.05  # the case is genuinely non-degenerate
        assert abs(est.value - target) <= 4.0 * est.std_error

    def test_bounded_weight_in_band(self):
        cfg = ThetaConfig(cos_block=["1/2 pi"], sin_block=[1.1])
        samples = make_samples(cfg, 0.15, 2000, seed=229)
        for c in range(2):
            est = martingale_residual(samples, c, 0.5, 1.0, conditioning=[0.25, 0.5])
            assert abs(est.value) <= 4.0 * est.std_error

    @pytest.mark.parametrize(
        "conditioning, message",
        [([0.25, 0.75], "must not exceed the increment start"), ([0.5, 0.25], "nondecreasing")],
    )
    def test_bad_conditioning_times_rejected(self, conditioning, message):
        cfg = ThetaConfig(cos_block=[1.0])
        samples = make_samples(cfg, 0.4, 10, seed=229)
        with pytest.raises(ValueError, match=message):
            martingale_residual(samples, 0, 0.5, 1.0, conditioning=conditioning)


class TestStroockVariance:
    def test_no_pi_component_rejected(self):
        cfg = ThetaConfig(cos_block=[1.0])
        samples = make_samples(cfg, 0.4, 10, seed=230)
        with pytest.raises(ValueError, match="angle-pi"):
            stroock_variance_check(samples, 1.0)

    def test_variance_at_time_zero(self):
        cfg = ThetaConfig(cos_block=["pi"])
        samples = make_samples(cfg, 0.4, 30, seed=231)
        est = stroock_variance_check(samples, 0.0)
        assert est.value == 0.0

    def test_unrescaled_matches_exact_second_moment(self):
        cfg = ThetaConfig(cos_block=["pi"])
        eps, M = 0.2, 2000
        samples = make_samples(cfg, eps, M, seed=232)
        est = stroock_variance_check(samples, 1.0)
        target = exact_increment_variance(math.pi, "cos", 0.0, 1.0, eps)
        assert abs(est.value - target) <= 4.0 * est.std_error
        assert target == pytest.approx(2.0, abs=0.05)

    def test_rescaled_halves_the_variance(self):
        eps, M = 0.2, 2000
        plain = make_samples(ThetaConfig(cos_block=["pi"]), eps, M, seed=233)
        scaled = make_samples(
            ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True), eps, M, seed=233
        )
        v_plain = stroock_variance_check(plain, 1.0)
        v_scaled = stroock_variance_check(scaled, 1.0)
        assert v_scaled.value == pytest.approx(v_plain.value / 2.0, rel=1e-12)
