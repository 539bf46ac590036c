"""Admissibility validation of the angle vector."""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from poisson_bm import Angle, ThetaConfig, parse_angle, validate_hypothesis_h
from poisson_bm.angles import (
    RULE_RANGE,
    RULE_SAME_BLOCK_EQUAL,
    RULE_SUM_2PI,
    TAU_THETA,
    HypothesisReport,
    Violation,
)

from oracles import exact_cross_moment, limit_covariance


class TestParseAngle:
    def test_decimal_radians(self):
        assert parse_angle(2.2).radians == 2.2
        assert parse_angle("2.2").radians == 2.2
        assert parse_angle(2.2).pi_fraction is None

    def test_rational_pi_forms(self):
        a = parse_angle("1/2 pi")
        assert a.pi_fraction == Fraction(1, 2)
        assert a.radians == pytest.approx(math.pi / 2, rel=0, abs=1e-15)
        assert parse_angle("pi").pi_fraction == 1
        assert parse_angle("3/2 pi").pi_fraction == Fraction(3, 2)
        assert parse_angle("3 pi").pi_fraction == 3

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("two pi and change")
        with pytest.raises(ValueError):
            parse_angle(float("nan"))
        with pytest.raises(TypeError):
            parse_angle(object())

    def test_angle_passthrough(self):
        a = Angle(1.0)
        assert parse_angle(a) is a

    @pytest.mark.parametrize("value,radians", [(np.int64(2), 2.0), (np.float32(1.5), 1.5),
                                               (Fraction(1, 4), 0.25), (3, 3.0)])
    def test_numpy_and_other_real_numbers_are_radians(self, value, radians):
        angle = parse_angle(value)
        assert angle == Angle(radians) and type(angle.radians) is float

    @pytest.mark.parametrize("value", [True, False, np.True_, None, b"1.0"])
    def test_anything_but_a_real_number_or_a_string_is_refused(self, value):
        # a bool is a flag, not a number: True used to give 1.0 rad
        with pytest.raises(TypeError, match="unsupported angle type"):
            parse_angle(value)

    def test_the_largest_denominator_is_two_to_the_thirty(self):
        assert parse_angle("1/1073741824 pi").pi_fraction == Fraction(1, 2**30)
        # the bound is on the reduced fraction
        assert parse_angle("2/2147483648 pi").pi_fraction == Fraction(1, 2**30)
        with pytest.raises(ValueError, match="denominator .* must be at most 1073741824$"):
            parse_angle("1/1073741825 pi")
        with pytest.raises(ValueError, match="denominator .* must be at most 1073741824$"):
            Angle(0.0, Fraction(1, 10**400))

    @pytest.mark.parametrize("value", [10**400, -10**400, f"{10**400} pi", f"{10**400}/3 pi"])
    def test_a_value_beyond_floats_range_is_refused(self, value):
        # float() used to raise OverflowError, which a config error does not catch
        with pytest.raises(ValueError, match=r"beyond a float's range \(about 1.8e308\)$"):
            parse_angle(value)


class TestThetaConfig:
    @pytest.mark.parametrize("block", ["cos_block", "sin_block"])
    def test_a_bare_string_block_is_refused_naming_the_field(self, block):
        # it used to be read as its characters: "cannot parse angle 'p'"
        with pytest.raises(ValueError, match=f"^{block} must be a sequence of angles, got 'pi'$"):
            ThetaConfig(**{block: "pi"})


class TestValidateHypothesis:
    def test_cross_block_equality_is_legal(self):
        # the complex Brownian-motion pairing: same angle in both blocks
        cfg = ThetaConfig(cos_block=["1/2 pi"], sin_block=["1/2 pi"])
        rep = validate_hypothesis_h(cfg)
        assert rep.valid
        assert rep.violations == ()

    def test_valid_means_no_violations(self):
        assert HypothesisReport(violations=(), pi_rescaled_indices=()).valid
        broken = HypothesisReport(
            violations=(Violation(RULE_RANGE, (1,), (0.0,)),), pi_rescaled_indices=()
        )
        assert not broken.valid
        assert broken.to_dict()["valid"] is False

    def test_sum_2pi_pair_detected(self):
        cfg = ThetaConfig(cos_block=["1/2 pi", "3/2 pi"])
        rep = validate_hypothesis_h(cfg)
        assert not rep.valid
        assert [(v.rule, v.indices) for v in rep.violations] == [(RULE_SUM_2PI, (1, 2))]

    def test_same_block_equal_detected(self):
        cfg = ThetaConfig(cos_block=[1.0, 1.0])
        rep = validate_hypothesis_h(cfg)
        assert not rep.valid
        assert [(v.rule, v.indices) for v in rep.violations] == [(RULE_SAME_BLOCK_EQUAL, (1, 2))]

    def test_pi_allowed_in_cos_with_flag(self):
        cfg = ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True)
        rep = validate_hypothesis_h(cfg)
        assert rep.valid
        assert rep.pi_rescaled_indices == (1,)

    def test_pi_rejected_without_flag(self):
        rep = validate_hypothesis_h(ThetaConfig(cos_block=["pi"]))
        assert not rep.valid
        rules = {v.rule for v in rep.violations}
        # out of range, and the self-pair sums to 2*pi
        assert rules == {RULE_RANGE, RULE_SUM_2PI}

    def test_pi_in_sin_block_always_rejected(self):
        # sin(pi * N) is identically zero; the flag only covers the cosine block
        rep = validate_hypothesis_h(ThetaConfig(sin_block=["pi"], allow_pi_in_cos=True))
        assert not rep.valid
        assert any(v.rule == RULE_RANGE for v in rep.violations)

    def test_at_most_one_pi_in_cos(self):
        rep = validate_hypothesis_h(
            ThetaConfig(cos_block=["pi", "pi"], allow_pi_in_cos=True)
        )
        assert not rep.valid
        rules = {v.rule for v in rep.violations}
        assert RULE_SAME_BLOCK_EQUAL in rules
        assert RULE_SUM_2PI in rules  # pi + pi = 2*pi across the two entries

    def test_zero_angle_out_of_range(self):
        rep = validate_hypothesis_h(ThetaConfig(cos_block=[0.0]))
        assert not rep.valid
        assert rep.violations[0].rule == RULE_RANGE

    def test_angle_beyond_two_pi_out_of_range(self):
        rep = validate_hypothesis_h(ThetaConfig(cos_block=[7.0]))
        assert not rep.valid
        assert rep.violations[0].rule == RULE_RANGE

    def test_empty_configuration_rejected(self):
        with pytest.raises(ValueError, match="no process components"):
            ThetaConfig(cos_block=[], sin_block=[])

    def test_rational_sum_check_is_exact(self):
        # floats of these angles do NOT sum to 2*pi exactly, the fractions do
        cfg = ThetaConfig(cos_block=["1/3 pi"], sin_block=["5/3 pi"])
        rep = validate_hypothesis_h(cfg)
        assert not rep.valid
        assert rep.violations[0].rule == RULE_SUM_2PI

    def test_near_degenerate_decimal_pair_caught_by_tolerance(self):
        cfg = ThetaConfig(cos_block=[1.0, 1.0 + 1e-13])
        rep = validate_hypothesis_h(cfg)
        assert any(v.rule == RULE_SAME_BLOCK_EQUAL for v in rep.violations)

    def test_all_violations_reported(self):
        cfg = ThetaConfig(cos_block=[0.0, 1.0, 1.0], sin_block=["3/2 pi", "1/2 pi"])
        rep = validate_hypothesis_h(cfg)
        rules = [v.rule for v in rep.violations]
        assert rules.count(RULE_RANGE) == 1        # the 0.0 entry
        assert rules.count(RULE_SAME_BLOCK_EQUAL) == 1  # the duplicate 1.0
        assert rules.count(RULE_SUM_2PI) >= 1      # the 3/2 pi + 1/2 pi cross pair


class TestValidationProperties:
    def test_block_permutation_preserves_verdict(self):
        angles = [0.7, 2.0, 5.1]
        base = validate_hypothesis_h(ThetaConfig(cos_block=angles))
        for perm in ([2.0, 5.1, 0.7], [5.1, 0.7, 2.0], [2.0, 0.7, 5.1]):
            rep = validate_hypothesis_h(ThetaConfig(cos_block=perm))
            assert rep.valid == base.valid

    def test_permutation_moves_violation_indices_consistently(self):
        rep = validate_hypothesis_h(ThetaConfig(cos_block=[1.0, 2.0, 1.0]))
        assert [(v.rule, v.indices) for v in rep.violations] == [(RULE_SAME_BLOCK_EQUAL, (1, 3))]
        rep2 = validate_hypothesis_h(ThetaConfig(cos_block=[2.0, 1.0, 1.0]))
        assert [(v.rule, v.indices) for v in rep2.violations] == [(RULE_SAME_BLOCK_EQUAL, (2, 3))]

    def test_unordered_pair_set_symmetric(self):
        cfg_a = ThetaConfig(cos_block=["1/2 pi"], sin_block=["3/2 pi"])
        cfg_b = ThetaConfig(cos_block=["3/2 pi"], sin_block=["1/2 pi"])
        va = {frozenset(v.indices) for v in validate_hypothesis_h(cfg_a).violations}
        vb = {frozenset(v.indices) for v in validate_hypothesis_h(cfg_b).violations}
        assert va == vb

    def test_flag_never_invalidates(self):
        for angles in ([0.7], [0.7, 2.0], ["1/2 pi"]):
            without = validate_hypothesis_h(ThetaConfig(cos_block=angles))
            with_flag = validate_hypothesis_h(
                ThetaConfig(cos_block=angles, allow_pi_in_cos=True)
            )
            assert without.valid
            assert with_flag.valid

    def test_report_indices_reference_existing_entries(self):
        cfg = ThetaConfig(cos_block=[0.0, 1.0, 1.0], sin_block=["3/2 pi", "1/2 pi"])
        rep = validate_hypothesis_h(cfg)
        for v in rep.violations:
            for i in v.indices:
                assert 1 <= i <= cfg.dimension


class TestHypothesisAgainstTheLimitCovariance:
    """Hypothesis H against the exact limit law (``oracles.limit_covariance``):
    standard BM is Sigma = I per unit time and every stationary mean 0."""

    # every p/q pi in (0, 2 pi) with q <= 4
    FRACTIONS = sorted({Fraction(p, q) for q in range(1, 5) for p in range(1, 2 * q)})

    def test_every_vector_up_to_d3_and_q4(self):
        cases = h_invalid_bm = 0
        for d in (1, 2, 3):
            for n_cos, allow_pi in itertools.product(range(d + 1), (False, True)):
                for fractions in itertools.product(self.FRACTIONS, repeat=d):
                    angles = [f"{f} pi" for f in fractions]
                    config = ThetaConfig(angles[:n_cos], angles[n_cos:], allow_pi)
                    sigma, means = limit_covariance(config)
                    identity = np.abs(sigma - np.eye(d)).max() <= 1e-9
                    report = validate_hypothesis_h(config)
                    cases += 1
                    if report.valid:
                        assert identity and np.abs(means).max() <= 1e-9, config
                    elif identity:
                        # cos theta with sin(2 pi - theta): H is sufficient, not necessary
                        h_invalid_bm += 1
                        assert all(v.rule == RULE_SUM_2PI and v.indices[0] <= n_cos < v.indices[1]
                                   for v in report.violations), config
        assert (cases, h_invalid_bm) == (11_418, 680)

    @pytest.mark.parametrize(
        "cos_block,sin_block,allow_pi,valid,want",
        [
            (["pi"], [], False, False, [[2.0]]),  # the Stroock check's 2T
            (["pi"], [], True, True, [[1.0]]),
            (["1/3 pi"], ["5/3 pi"], False, False, np.eye(2)),
        ],
        ids=["cos_pi", "cos_pi_rescaled", "cos_pi3_sin_5pi3"],
    )
    def test_spot_checks(self, cos_block, sin_block, allow_pi, valid, want):
        config = ThetaConfig(cos_block, sin_block, allow_pi)
        sigma, means = limit_covariance(config)
        np.testing.assert_allclose(sigma, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(means, 0.0, rtol=0, atol=1e-12)
        assert validate_hypothesis_h(config).valid is valid

    def test_matches_the_exact_second_moments_at_small_eps(self):
        # Sigma against oracles.exact_cross_moment over (0, 1), which is
        # Sigma + O(eps^2); H-invalid rows too (a SUM_2PI pair, an unrescaled pi)
        config = ThetaConfig(["1/3 pi", "5/3 pi", "pi"], ["1/2 pi", "1/4 pi"])
        sigma, _ = limit_covariance(config)
        thetas = [a.radians for a in config.angles]
        for i, j in itertools.combinations_with_replacement(range(config.dimension), 2):
            kind = config.component_kind(i) + config.component_kind(j)
            exact = exact_cross_moment(thetas[i], thetas[j], kind, 0.0, 1.0, 0.01)
            assert exact == pytest.approx(sigma[i, j], abs=1e-3), (i, j)


class TestPiRescaleFlag:
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_refuses_anything_but_a_bool(self, value):
        # "false" is truthy: bool() used to store True
        with pytest.raises(
            ValueError, match=f"^allow_pi_in_cos must be True or False, got {value!r}$"
        ):
            ThetaConfig(cos_block=["pi"], allow_pi_in_cos=value)

    @pytest.mark.parametrize("value", [True, np.True_])
    def test_numpy_bool_is_stored_as_bool(self, value):
        cfg = ThetaConfig(cos_block=["pi"], allow_pi_in_cos=value)
        assert cfg.allow_pi_in_cos is True
        assert cfg == ThetaConfig(cos_block=["pi"], allow_pi_in_cos=True)
        assert cfg.pi_rescaled_indices == (1,)


class TestPiComponents:
    """The angle-pi cosines, found in one place: 0-based whatever the flag,
    and 1-based as ``pi_rescaled_indices`` only with it."""

    @pytest.mark.parametrize("allow_pi", [False, True])
    def test_pi_then_a_decimal_angle(self, allow_pi):
        cfg = ThetaConfig(cos_block=["pi", 2.2], allow_pi_in_cos=allow_pi)
        assert cfg.pi_components == (0,)
        assert cfg.pi_rescaled_indices == ((1,) if allow_pi else ())

    def test_decimal_angle_within_tau_of_pi(self):
        cfg = ThetaConfig(
            cos_block=[math.pi + 10 * TAU_THETA, 1.0, math.pi - 0.5 * TAU_THETA],
            sin_block=["pi"],  # a sine is never an angle-pi cosine
            allow_pi_in_cos=True,
        )
        assert cfg.pi_components == (2,)
        assert cfg.pi_rescaled_indices == (3,)


class TestThetaConfigCopies:
    ARGS = {"cos_block": ["1/2 pi", 2.2], "sin_block": ["1/2 pi", 2.2]}

    def test_copies_hash_like_a_config_built_here(self):
        cfg = ThetaConfig(**self.ARGS)
        fresh = ThetaConfig(**self.ARGS)
        for clone in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
            assert clone == fresh and hash(clone) == hash(fresh)
            assert {fresh: "table"}[clone] == "table"
