"""Tests for the hardware RNG model."""

import numpy as np
import pytest

from repro.util.rng import HardwareRng, derive_seed


class TestHardwareRng:
    def test_draw_within_width(self):
        rng = HardwareRng(seed=1, width=8)
        assert all(0 <= rng.draw() < 256 for _ in range(1000))

    def test_draw_masked_applies_mask(self):
        rng = HardwareRng(seed=2, width=8)
        assert all(rng.draw_masked(0x0F) < 16 for _ in range(500))

    def test_draw_below_bound(self):
        rng = HardwareRng(seed=3)
        assert all(rng.draw_below(7) < 7 for _ in range(500))

    def test_draw_below_rejects_nonpositive(self):
        rng = HardwareRng(seed=3)
        with pytest.raises(ValueError):
            rng.draw_below(0)

    def test_deterministic_given_seed(self):
        a = [HardwareRng(seed=42).draw() for _ in range(50)]
        b = [HardwareRng(seed=42).draw() for _ in range(50)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [HardwareRng(seed=1).draw() for _ in range(50)]
        b = [HardwareRng(seed=2).draw() for _ in range(50)]
        assert a != b

    def test_width_validation(self):
        with pytest.raises(ValueError):
            HardwareRng(seed=0, width=0)

    def test_buffer_size_validation(self):
        with pytest.raises(ValueError):
            HardwareRng(seed=0, buffer_size=0)

    def test_fork_is_independent_stream(self):
        parent = HardwareRng(seed=9)
        child = parent.fork("component")
        a = [child.draw() for _ in range(20)]
        b = [parent.draw() for _ in range(20)]
        assert a != b

    def test_roughly_uniform(self):
        rng = HardwareRng(seed=11, width=4)
        counts = [0] * 16
        for _ in range(16000):
            counts[rng.draw()] += 1
        assert min(counts) > 700 and max(counts) < 1300


class TestPregenerate:
    """``pregenerate(n)`` must be bit-identical to ``n`` scalar draws —
    values *and* the RNG state left behind."""

    def test_matches_scalar_draws(self):
        for seed in (0, 1, 42):
            batched = HardwareRng(seed=seed)
            scalar = HardwareRng(seed=seed)
            assert batched.pregenerate(1000) == \
                [scalar.draw() for _ in range(1000)]

    def test_mid_buffer_start_then_lockstep(self):
        batched = HardwareRng(seed=5)
        scalar = HardwareRng(seed=5)
        for _ in range(37):           # leave both mid-buffer
            assert batched.draw() == scalar.draw()
        assert batched.pregenerate(300) == \
            [scalar.draw() for _ in range(300)]
        # State after: subsequent draws still agree (multi-refill tail).
        assert [batched.draw() for _ in range(700)] == \
            [scalar.draw() for _ in range(700)]

    def test_interleaved_pregenerate_and_draw(self):
        batched = HardwareRng(seed=8)
        scalar = HardwareRng(seed=8)
        stream = []
        stream += batched.pregenerate(13)
        stream += [batched.draw() for _ in range(5)]
        stream += batched.pregenerate(600)
        stream += [batched.draw()]
        assert stream == [scalar.draw() for _ in range(len(stream))]

    def test_narrow_width(self):
        batched = HardwareRng(seed=9, width=16)
        scalar = HardwareRng(seed=9, width=16)
        assert batched.pregenerate(2500) == \
            [scalar.draw() for _ in range(2500)]

    def test_nonpositive_count_is_empty_noop(self):
        rng = HardwareRng(seed=1)
        assert rng.pregenerate(0) == []
        assert rng.pregenerate(-3) == []
        assert rng.draw() == HardwareRng(seed=1).draw()

    def test_scalar_fallback_matches_numpy_path(self):
        # Wide RNGs skip the numpy transplant (> one MT word per draw).
        wide = HardwareRng(seed=4, width=48)
        scalar = HardwareRng(seed=4, width=48)
        assert wide.pregenerate(700) == [scalar.draw() for _ in range(700)]


def _scalar_twin(seed, width, buffer_size):
    return HardwareRng(seed=seed, width=width, buffer_size=buffer_size)


class TestDrawRow:
    """``draw_row(n)`` is the array form of ``n`` scalar draws: same
    values, same RNG state and buffer left behind, at every width."""

    @pytest.mark.parametrize("width", [1, 8, 32, 48, 70])
    @pytest.mark.parametrize("buffer_size", [7, 256])
    def test_matches_scalar_draws_and_state(self, width, buffer_size):
        batched = _scalar_twin(3, width, buffer_size)
        scalar = _scalar_twin(3, width, buffer_size)
        for count in (1, buffer_size - 1, buffer_size + 1, 1000, 0, 13):
            row = batched.draw_row(count)
            assert row.tolist() == [scalar.draw() for _ in range(count)]
            assert batched._rng.getstate() == scalar._rng.getstate()
            assert batched._buffer == scalar._buffer

    @pytest.mark.parametrize("width,dtype", [
        (1, np.uint32), (8, np.uint32), (32, np.uint32),
        (48, np.uint64), (70, object)])
    def test_dtype(self, width, dtype):
        row = HardwareRng(seed=0, width=width).draw_row(300)
        assert row.dtype == dtype
        assert row.shape == (300,)

    @pytest.mark.parametrize("width", [1, 8, 32, 48])
    def test_interleaved_with_draw(self, width):
        batched = HardwareRng(seed=8, width=width)
        scalar = HardwareRng(seed=8, width=width)
        stream = []
        for count in (5, 300, 1, 511, 256, 2):
            stream += batched.draw_row(count).tolist()
            stream += [batched.draw() for _ in range(count % 7)]
        assert stream == [scalar.draw() for _ in range(len(stream))]
        assert batched._rng.getstate() == scalar._rng.getstate()
        assert batched._buffer == scalar._buffer

    def test_two_instances_alternating(self):
        # Every bulk draw reuses one process-wide numpy generator; it must
        # carry no state from one HardwareRng into the next.
        first, second = HardwareRng(seed=1), HardwareRng(seed=2)
        first_ref, second_ref = HardwareRng(seed=1), HardwareRng(seed=2)
        for count in (700, 300, 1, 1024, 333):
            assert first.draw_row(count).tolist() == \
                [first_ref.draw() for _ in range(count)]
            assert second.draw_row(count).tolist() == \
                [second_ref.draw() for _ in range(count)]
        assert first._rng.getstate() == first_ref._rng.getstate()
        assert second._rng.getstate() == second_ref._rng.getstate()

    def test_nonpositive_count_is_empty_noop(self):
        rng = HardwareRng(seed=1)
        assert rng.draw_row(0).shape == (0,)
        assert rng.draw_row(-3).shape == (0,)
        assert rng.draw() == HardwareRng(seed=1).draw()


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_sensitive_to_components(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        s = derive_seed(123456789, "x", "y", 3)
        assert 0 <= s < 2 ** 64
