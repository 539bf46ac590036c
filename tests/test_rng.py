"""Counter-based stream derivation."""

import numpy as np
import pytest

import poisson_bm.rng as rng
from poisson_bm import RunConfig, ThetaConfig, derive_stream, run_experiment
from poisson_bm.rng import _PhiloxKey


class TestDeriveStream:
    def test_same_tuple_same_stream(self):
        a = derive_stream(123, 4, 5).random(1000)
        b = derive_stream(123, 4, 5).random(1000)
        assert np.array_equal(a, b)

    def test_different_replication_differs(self):
        a = derive_stream(123, 4, 5).random(10000)
        b = derive_stream(123, 4, 6).random(10000)
        assert np.any(a != b)

    def test_different_epsilon_index_differs(self):
        a = derive_stream(123, 4, 5).random(10000)
        b = derive_stream(123, 5, 5).random(10000)
        assert np.any(a != b)

    def test_different_master_seed_differs(self):
        a = derive_stream(123, 4, 5).random(10000)
        b = derive_stream(124, 4, 5).random(10000)
        assert np.any(a != b)

    def test_equidistribution_smoke(self):
        # mean of 1e6 uniforms: SD of the mean is 1/sqrt(12e6) ~ 2.9e-4
        u = derive_stream(7, 0, 0).random(1_000_000)
        assert abs(u.mean() - 0.5) < 0.002

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            derive_stream(-1, 0, 0)
        with pytest.raises(ValueError):
            derive_stream(2**64, 0, 0)
        with pytest.raises(ValueError):
            derive_stream(0, 2**32, 0)
        with pytest.raises(ValueError):
            derive_stream(0, 0, 2**32)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_counter_stays_zero_and_read_only(self, workers):
        # every stream starts from the one zero counter; a run, serial or
        # pooled, over 2 epsilons leaves it as it was
        config = RunConfig(theta=ThetaConfig(cos_block=["1/2 pi"]), epsilons=(0.4, 0.3),
                           replications_M=40, master_seed=3, grid_points=2, workers=workers,
                           checks=("covariance",))
        run_experiment(config)
        assert derive_stream(3, 0, 0).bit_generator.state["state"]["counter"].tolist() == [0] * 4
        assert rng._ZERO_COUNTER.tolist() == [0] * 4
        assert rng._ZERO_COUNTER.dtype == np.uint64
        assert not rng._ZERO_COUNTER.flags.writeable

    def test_full_64_bit_seed_accepted(self):
        stream = derive_stream(2**64 - 1, 2**32 - 1, 2**32 - 1)
        assert 0.0 <= stream.random() < 1.0


def _flat_state(stream):
    """The bit generator's state as comparable (name, value) pairs."""
    def flat(prefix, value):
        if isinstance(value, dict):
            return [kv for k, v in value.items() for kv in flat(f"{prefix}.{k}", v)]
        return [(prefix, np.asarray(value).tolist())]
    return flat("", stream.bit_generator.state)


class TestPhiloxKey:
    """Streams are numpy's Philox keyed by (seed << 64) | (eps << 32) | rep."""

    @pytest.mark.parametrize(
        "seed,eps,rep",
        [(0, 0, 0), (12345, 3, 17), (2**64 - 1, 2**32 - 1, 2**32 - 1)],
    )
    def test_draws_equal_philox_with_the_packed_key(self, seed, eps, rep):
        key = (seed << 64) | (eps << 32) | rep
        want = np.random.Generator(np.random.Philox(key=key))
        got = derive_stream(seed, eps, rep)
        assert np.array_equal(got.random(1000), want.random(1000))
        assert np.array_equal(got.integers(0, 2**63, 100), want.integers(0, 2**63, 100))
        assert _flat_state(got) == _flat_state(want)

    @pytest.mark.parametrize("n_words,dtype", [(4, np.uint64), (2, np.uint32), (4, np.uint32)])
    def test_key_source_refuses_other_requests(self, n_words, dtype):
        key = _PhiloxKey(np.array([1, 2], dtype=np.uint64))
        assert key.generate_state(2, np.uint64).tolist() == [1, 2]
        with pytest.raises(ValueError, match="2 uint64 words"):
            key.generate_state(n_words, dtype)
