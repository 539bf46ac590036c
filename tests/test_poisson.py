"""Poisson path sampling and the exact trig integrator."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from poisson_bm import (
    PoissonPath,
    decay_factor,
    derive_stream,
    parse_angle,
    sample_poisson_path,
)
from poisson_bm.angles import Angle
from poisson_bm.poisson import _level_values, integral_from_zero
from oracles import char_fn, riemann_trig_integral


def trig_integral(path, theta, a, b, kind):
    """Integral of trig(theta * N_x) over [a, b], from the prefixes at a and b."""
    pa, pb = integral_from_zero(path, theta, kind, [a, b])
    return float(pb - pa)


class TestSamplePoissonPath:
    def test_zero_horizon_gives_empty_path(self):
        path = sample_poisson_path(0.0, derive_stream(1, 0, 0))
        assert path.jump_times.size == 0

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            sample_poisson_path(-1.0, derive_stream(1, 0, 0))

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and >= 0"):
            sample_poisson_path(horizon, derive_stream(1, 0, 0))

    def test_construction_invariants(self):
        for rep in range(20):
            path = sample_poisson_path(200.0, derive_stream(7, 0, rep))
            jt = path.jump_times
            assert np.all(np.diff(jt) > 0)
            assert jt[0] > 0
            assert jt[-1] <= 200.0

    def test_determinism(self):
        a = sample_poisson_path(123.0, derive_stream(42, 1, 5))
        b = sample_poisson_path(123.0, derive_stream(42, 1, 5))
        assert np.array_equal(a.jump_times, b.jump_times)

    def test_mean_jump_count_matches_horizon(self):
        # Poisson(h) has mean h; 1000 seeds at h = 1e4 give SE = sqrt(h/1000)
        horizon = 1.0e4
        n_seeds = 1000
        counts = np.array(
            [sample_poisson_path(horizon, derive_stream(11, 0, r)).jump_times.size
             for r in range(n_seeds)]
        )
        se = math.sqrt(horizon / n_seeds)
        assert abs(counts.mean() - horizon) <= 4.0 * se

    def test_compares_and_hashes_by_identity(self):
        a = sample_poisson_path(123.0, derive_stream(42, 1, 5))
        b = sample_poisson_path(123.0, derive_stream(42, 1, 5))
        # equal jump arrays: no truth value of an array is asked for
        assert a == a and a != b
        paths = {a: "path"}
        assert paths[a] == "path" and b not in paths

    def test_invalid_jump_times_rejected(self):
        with pytest.raises(ValueError):
            PoissonPath(1.0, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            PoissonPath(1.0, np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            PoissonPath(1.0, np.array([-0.1]))


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


class _StubStream:
    """Uniforms from a fixed recipe: ``first`` fills the first block (with
    optional first and last entries from ``ends``), ``rest`` every later one.
    Records the block sizes requested."""

    def __init__(self, first, rest=0.5, ends=None):
        self.first, self.rest, self.ends = first, rest, ends
        self.calls = []

    def random(self, n):
        self.calls.append(n)
        if len(self.calls) > 1:
            return np.full(n, self.rest)
        u = np.full(n, self.first)
        if self.ends is not None:
            u[0], u[-1] = self.ends
        return u


class TestPinnedBits:
    """Jump times recorded from the sampler before its fast path; any
    change to the bits of a path fails here."""

    @pytest.mark.parametrize(
        "horizon,key,size,digest",
        [
            (0.5, (1, 0, 0), 2,
             "1eacea0e54cfbb813a0912103e37e0535a4ae9346051db42f6c50baed0888da6"),
            (0.5, (3, 1, 4), 1,
             "eac6cd4cb16115e88843beba531d815da3a8364463cdb44ade235b0751e38de1"),
            (0.5, (12345, 3, 17), 0,
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (12.5, (0, 0, 0), 9,
             "4b87b00c6f78366e8a0985e4c49c48638021dff200a20cdf41e9151bed76f23e"),
            (12.5, (12345, 3, 17), 16,
             "c84b6610fca9a28fd3d4bce57a8a9c65deef47cba17b8a9edee27cdb8bfbfd17"),
            (12.5, (2**64 - 1, 2**32 - 1, 2**32 - 1), 10,
             "fecfa15d606a2805a7684f233697de8c8fdeb46ddead014b8be21b8df979af28"),
            (20000.0, (0, 0, 0), 20042,
             "6147eda81e347311bf1dbd616664fc79e642d2b63a56f0414404b5991b7731d0"),
            (20000.0, (12345, 3, 17), 20172,
             "9fff66e95bceb7c39bf9e2c28cc639c51373e9ae0aebdd942063c18b89e27a51"),
            (20000.0, (2**64 - 1, 2**32 - 1, 2**32 - 1), 19949,
             "2c8c5f80bac11233bbdf62c4f4b96b128f8a4e2e118c7f67cb0fd066b9efdec5"),
        ],
    )
    def test_keyed_paths(self, horizon, key, size, digest):
        jumps = sample_poisson_path(horizon, derive_stream(*key)).jump_times
        assert jumps.size == size
        assert _sha256(jumps) == digest

    def test_second_block(self):
        # gaps of -log(0.99) do not reach 2.0 within the first block of 23;
        # the second block (16 = max(16, 23 // 4)) crosses the horizon
        stream = _StubStream(0.99)
        jumps = sample_poisson_path(2.0, stream).jump_times
        assert stream.calls == [23, 16]
        assert jumps.size == 25
        assert [float(x).hex() for x in jumps[[0, 22, 23, 24]]] == [
            "0x1.495453e6fd4bcp-7", "0x1.d969389c0c1d2p-3",
            "0x1.d93e7e16a6a64p-1", "0x1.9e11570325229p+0",
        ]
        assert _sha256(jumps) == (
            "854e3f1708552829b15e9c6d739591647cac27ba47ebb9f6a7639c74ed198112"
        )

    def test_tied_times_are_bumped_one_ulp_apart(self):
        # one gap of 20 log 2 then gaps of 2**-53, far below an ulp of the
        # running time: 51 tied times, each bumped one ulp past the last
        stream = _StubStream(1.0 - 2.0**-53, ends=(2.0**-20, 2.0**-20))
        jumps = sample_poisson_path(20.0, stream).jump_times
        assert stream.calls == [53]
        assert jumps.size == 52
        assert np.all(np.diff(jumps) > 0.0)
        assert float(jumps[0]).hex() == "0x1.bb9d3beb8c86bp+3"
        assert float(jumps[-1]).hex() == "0x1.bb9d3beb8c89ep+3"
        assert _sha256(jumps) == (
            "05e2dd68a5175c310b1f3d98b8149cca7ffc93918d119e06f0f5733766e9ce1f"
        )

    def test_bumped_times_beyond_the_horizon_are_dropped(self):
        first = float(-np.log(2.0**-20))
        horizon = float(np.nextafter(np.nextafter(first, np.inf), np.inf))
        stream = _StubStream(1.0 - 2.0**-53, ends=(2.0**-20, 2.0**-20))
        jumps = sample_poisson_path(horizon, stream).jump_times
        assert stream.calls == [44]
        assert [float(x).hex() for x in jumps] == [
            "0x1.bb9d3beb8c86bp+3", "0x1.bb9d3beb8c86cp+3", "0x1.bb9d3beb8c86dp+3",
        ]


def _assert_passes_public_checks(path):
    rebuilt = PoissonPath(path.horizon, path.jump_times)
    assert type(path.horizon) is float
    # already a one-dimensional float64 array: np.asarray hands it back as is
    assert rebuilt.jump_times is path.jump_times


class TestSampledPathsPassPublicChecks:
    """``sample_poisson_path`` builds its path without PoissonPath's checks;
    every path it returns must pass them through the public constructor."""

    @pytest.mark.parametrize("horizon", [0.0, 1e-3, 0.5, 2.0, 12.5, 200.0, 5000.0])
    def test_keyed_paths(self, horizon):
        for rep in range(40):
            for seed in (0, 12345, 2**64 - 1):
                _assert_passes_public_checks(
                    sample_poisson_path(horizon, derive_stream(seed, rep % 3, rep))
                )

    def test_zero_jumps(self):
        # every gap -log(0.01) ~ 4.6 overshoots the horizon
        path = sample_poisson_path(0.5, _StubStream(0.01))
        assert path.jump_times.size == 0
        _assert_passes_public_checks(path)

    def test_second_block(self):
        path = sample_poisson_path(2.0, _StubStream(0.99))
        assert path.jump_times.size == 25
        _assert_passes_public_checks(path)

    def test_bumped_ties(self):
        path = sample_poisson_path(20.0, _StubStream(1.0 - 2.0**-53, ends=(2.0**-20, 2.0**-20)))
        assert path.jump_times.size == 52
        _assert_passes_public_checks(path)

    def test_bumped_ties_cut_at_the_horizon(self):
        first = float(-np.log(2.0**-20))
        horizon = float(np.nextafter(np.nextafter(first, np.inf), np.inf))
        stream = _StubStream(1.0 - 2.0**-53, ends=(2.0**-20, 2.0**-20))
        path = sample_poisson_path(horizon, stream)
        assert path.jump_times[-1] == horizon
        _assert_passes_public_checks(path)

    def test_integer_horizon_becomes_a_float(self):
        path = sample_poisson_path(3, derive_stream(5, 0, 0))
        assert path.horizon == 3.0
        _assert_passes_public_checks(path)


class TestFirstBlockTieGuard:
    """A path that ends in its first block is returned as cut when its
    smallest interarrival is at least one ulp of the horizon, and takes the
    tie scan otherwise. Here the first time is 1 - 8 * 2**-53 and every
    later gap -log(1 - 2**-53) is 2**-53, exactly one ulp below 1.0 and
    half of one above it, where 1.0 + 2**-53 rounds back to 1.0: a tie."""

    U0 = float(np.exp(-(1.0 - 2.0**-50)))

    def _jumps(self, horizon):
        stream = _StubStream(1.0 - 2.0**-53, ends=(self.U0, 0.01))
        path = sample_poisson_path(horizon, stream)
        assert stream.calls == [21]
        assert float(-np.log(self.U0)) == 1.0 - 8 * 2.0**-53
        _assert_passes_public_checks(path)
        return path.jump_times

    def test_smallest_gap_exactly_one_ulp_of_the_horizon(self):
        horizon = 1.0 - 2.0**-53
        assert float(-np.log(1.0 - 2.0**-53)) == math.ulp(horizon) == 2.0**-53
        jumps = self._jumps(horizon)
        assert jumps.size == 8 and jumps[-1] == horizon
        assert np.all(np.diff(jumps) > 0.0)

    def test_smallest_gap_just_below_one_ulp_of_the_horizon(self):
        assert math.ulp(1.0) == 2.0**-52
        jumps = self._jumps(1.0)
        # the tied 1.0s are bumped past the horizon and dropped
        assert jumps.size == 9 and jumps[-2] == 1.0 - 2.0**-53 and jumps[-1] == 1.0
        assert np.all(np.diff(jumps) > 0.0)


def _rational_angles(max_q):
    """Every reduced p/q pi with q <= max_q and -2q - 1 <= p <= 4q + 1, p != 0."""
    return [
        Angle(radians=float(f) * math.pi, pi_fraction=f)
        for f in sorted({Fraction(p, q) for q in range(1, max_q + 1)
                         for p in range(-2 * q - 1, 4 * q + 2) if p != 0})
    ]


DECIMAL_ANGLES = [1e-3, 0.4, 1.1, 2.2, 3.0, math.pi, 4.0, 6.0, 2.0 * math.pi, 7.5, 100.3,
                  0.0, -0.0, -1e-3, -0.4, -2.2, -math.pi, -7.1, -100.3]


class TestLevelValues:
    """Properties of trig(theta * k) that the two-lane kernel relies on."""

    N_LEVELS = 300  # more than one period 2q of every rational angle here

    @staticmethod
    def _negative_zeros(values):
        return int(np.count_nonzero(np.signbit(values) & (values == 0.0)))

    @pytest.mark.parametrize("kind", ["cos", "sin"])
    def test_no_negative_zero_for_rational_angles(self, kind):
        # a level of -0.0 would turn (a + bi)(w + 0i) into a different zero
        for angle in _rational_angles(64):
            assert self._negative_zeros(_level_values(angle, self.N_LEVELS, kind)) == 0, angle

    @pytest.mark.parametrize("kind", ["cos", "sin"])
    @pytest.mark.parametrize("radians", DECIMAL_ANGLES)
    def test_no_negative_zero_for_decimal_angles(self, kind, radians):
        values = _level_values(radians, 20_000, kind)
        assert self._negative_zeros(values) == 0

    @pytest.mark.parametrize("kind", ["cos", "sin"])
    def test_a_tail_equals_the_same_slice_of_the_whole(self, kind):
        angles = _rational_angles(12) + [Angle(radians=r) for r in DECIMAL_ANGLES]
        for angle in angles:
            whole = _level_values(angle, self.N_LEVELS, kind)
            for start in (0, 1, 2, 7, 25, 128, self.N_LEVELS - 1, self.N_LEVELS):
                tail = _level_values(angle, self.N_LEVELS, kind, start=start)
                assert tail.tobytes() == whole[start:].tobytes(), (angle, start)


    @pytest.mark.parametrize("kind", ["cos", "sin"])
    @pytest.mark.parametrize("p,q", [(2**31 - 1, 2**30), (2**30 - 1, 2**30),
                                     (2**31 - 3, 2**30 - 1)])
    @pytest.mark.parametrize("start", [0, 2**40])
    def test_exact_at_the_largest_denominators(self, kind, p, q, start):
        # from k = 2^32 on, p * k passes 2^63, beyond int64; a wrapped
        # product keeps its residue mod 2q only where 2q is a power of two
        n = 200_000
        angle = parse_angle(f"{p}/{q} pi")
        m = np.array([p * k % (2 * q) for k in range(start, start + n)], dtype=np.int64)
        phases = np.minimum(m, 2 * q - m) * (math.pi / q)
        if kind == "cos":
            expected = np.cos(phases)
        else:
            expected = np.where(m > q, -np.sin(phases), np.sin(phases))
            expected[(m == 0) | (m == q)] = 0.0
        got = _level_values(angle, start + n, kind, start=start)
        assert got.tobytes() == expected.tobytes()


class TestTrigIntegralExamples:
    def test_no_jumps(self):
        path = PoissonPath(2.0, np.empty(0))
        assert trig_integral(path, 1.234, 0.0, 2.0, "cos") == 2.0
        assert trig_integral(path, 1.234, 0.0, 2.0, "sin") == 0.0

    def test_single_jump_angle_pi(self):
        # (-1)^N: one unit at +1 then one unit at -1
        path = PoissonPath(2.0, np.array([1.0]))
        assert trig_integral(path, "pi", 0.0, 2.0, "cos") == 0.0

    def test_two_jumps_quarter_turn(self):
        # hand sum: 0.5*cos(0) + 0.5*cos(pi/2) + 0.5*cos(pi) and the sine analogue
        path = PoissonPath(1.5, np.array([0.5, 1.0]))
        assert trig_integral(path, "1/2 pi", 0.0, 1.5, "cos") == pytest.approx(0.0, abs=1e-12)
        assert trig_integral(path, "1/2 pi", 0.0, 1.5, "sin") == pytest.approx(0.5, rel=1e-15)

    def test_bounds_validation(self):
        path = PoissonPath(1.0, np.array([0.5]))
        with pytest.raises(ValueError):
            trig_integral(path, 1.0, 0.0, 1.0, "tan")


class TestTrigIntegralProperties:
    def test_riemann_oracle_agreement(self):
        # random paths, angles and intervals against a step-1e-5 midpoint sum
        rng = np.random.default_rng(2024)
        for case in range(60):
            horizon = float(rng.uniform(4.0, 10.0))
            path = sample_poisson_path(horizon, derive_stream(3000, 0, case))
            theta = float(rng.uniform(0.05, 2.0 * math.pi - 0.05))
            a = float(rng.uniform(0.0, horizon / 3))
            b = float(rng.uniform(a + 2.0, min(a + 6.0, horizon)))
            kind = "cos" if case % 2 == 0 else "sin"
            got = trig_integral(path, theta, a, b, kind)
            want = riemann_trig_integral(path.jump_times, theta, a, b, kind)
            assert abs(got - want) <= 1e-4 * (b - a), (case, theta, a, b)

    def test_additivity(self):
        rng = np.random.default_rng(5)
        for case in range(40):
            horizon = 50.0
            path = sample_poisson_path(horizon, derive_stream(3001, 0, case))
            a, b, c = np.sort(rng.uniform(0.0, horizon, size=3))
            theta = float(rng.uniform(0.1, 6.0))
            for kind in ("cos", "sin"):
                whole = trig_integral(path, theta, float(a), float(c), kind)
                split = trig_integral(path, theta, float(a), float(b), kind) + trig_integral(
                    path, theta, float(b), float(c), kind
                )
                # prefix-difference evaluation: only the outer subtractions
                # round, at the scale of the prefix values (<= horizon)
                assert abs(whole - split) <= 8 * np.spacing(horizon)

    def test_bounded_by_interval_length(self):
        rng = np.random.default_rng(6)
        for case in range(40):
            horizon = 30.0
            path = sample_poisson_path(horizon, derive_stream(3002, 0, case))
            a, b = np.sort(rng.uniform(0.0, horizon, size=2))
            theta = float(rng.uniform(0.1, 6.0))
            for kind in ("cos", "sin"):
                val = abs(trig_integral(path, theta, float(a), float(b), kind))
                assert val <= (b - a) + 8 * np.spacing(horizon)


class TestCharFn:
    def test_closed_form(self):
        theta, s = 2.0, 3.0
        v = char_fn(theta, s)
        assert v.real == pytest.approx(
            math.exp(-s * (1 - math.cos(theta))) * math.cos(s * math.sin(theta)), rel=1e-14
        )
        assert v.imag == pytest.approx(
            math.exp(-s * (1 - math.cos(theta))) * math.sin(s * math.sin(theta)), rel=1e-14
        )

    def test_monte_carlo_consistency(self):
        # empirical mean of cos(theta*N_s) vs the closed form, small grid
        M = 20000
        for theta, s in ((2.0, 3.0), (0.7, 1.0)):
            counts = np.array(
                [sample_poisson_path(s, derive_stream(900, 0, r)).jump_times.size
                 for r in range(M)]
            )
            for kind, target in (("cos", char_fn(theta, s).real),
                                 ("sin", char_fn(theta, s).imag)):
                vals = np.cos(theta * counts) if kind == "cos" else np.sin(theta * counts)
                se = vals.std(ddof=1) / math.sqrt(M)
                assert abs(vals.mean() - target) <= 4.0 * se


class TestDecayFactor:
    def test_reference_values(self):
        assert decay_factor("pi") == 2.0
        assert decay_factor(0.0) == 0.0
        assert decay_factor("1/2 pi") == pytest.approx(1.0, rel=1e-15)

    def test_range(self):
        for theta in np.linspace(0, 2 * math.pi, 50):
            assert 0.0 <= decay_factor(float(theta)) <= 2.0
