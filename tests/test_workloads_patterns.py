"""Tests for address pattern generators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.units import KIB, MIB
from repro.workloads import RandomPattern, SequentialPattern
from repro.workloads.patterns import StridePattern


class TestRandomPattern:
    def test_offsets_aligned_and_bounded(self):
        gen = RandomPattern(MIB, 4 * KIB, seed=1)
        offs = gen.next_batch(1000)
        assert (offs % (4 * KIB) == 0).all()
        assert offs.min() >= 0
        assert offs.max() + 4 * KIB <= MIB

    def test_deterministic_per_seed(self):
        a = RandomPattern(MIB, 4 * KIB, seed=3).next_batch(100)
        b = RandomPattern(MIB, 4 * KIB, seed=3).next_batch(100)
        assert (a == b).all()

    def test_covers_region(self):
        gen = RandomPattern(64 * KIB, 4 * KIB, seed=1)  # 16 slots
        offs = gen.next_batch(2000)
        assert len(np.unique(offs)) == 16

    def test_rejects_tiny_region(self):
        with pytest.raises(ConfigurationError):
            RandomPattern(KIB, 4 * KIB)


class TestSequentialPattern:
    def test_sequential_then_wraps(self):
        gen = SequentialPattern(16 * KIB, 4 * KIB)  # 4 slots
        offs = gen.next_batch(6)
        assert offs.tolist() == [0, 4096, 8192, 12288, 0, 4096]

    def test_cursor_persists_across_batches(self):
        gen = SequentialPattern(MIB, 4 * KIB)
        first = gen.next_batch(3)
        second = gen.next_batch(3)
        assert second[0] == first[-1] + 4 * KIB

    def test_start_offset(self):
        gen = SequentialPattern(MIB, 4 * KIB, start=8 * KIB)
        assert gen.next_batch(1)[0] == 8 * KIB

    def test_rejects_tiny_region(self):
        with pytest.raises(ConfigurationError):
            SequentialPattern(KIB, 4 * KIB)


def _per_call(gen, rows, count):
    return np.stack([gen.next_batch(count) for _ in range(rows)])


class TestWindowDraws:
    """``next_window(rows, count)`` equals ``rows`` successive
    ``next_batch(count)`` draws: the same values and the same end
    state, so a fused window and the scalar steps it stands for leave a
    pattern in one state."""

    @pytest.mark.parametrize("bound", [48, 1000, 2**32 - 1, 2**32, 2**32 + 1, 2**33])
    def test_random_window_is_one_draw_of_the_same_stream(self, bound):
        """One ``integers`` call of 7 x 4,096 draws, then 13 more,
        matches the per-call draws value for value and leaves the bit
        generator in the same state — including across a 32-bit
        bound's buffered half word."""
        window = RandomPattern(bound * 4 * KIB, 4 * KIB, seed=11)
        calls = RandomPattern(bound * 4 * KIB, 4 * KIB, seed=11)
        for rows, count in ((7, 4096), (1, 13), (3, 13)):
            assert np.array_equal(window.next_window(rows, count), _per_call(calls, rows, count))
            assert window._rng.bit_generator.state == calls._rng.bit_generator.state

    def test_shared_generator_rows_in_step_order(self):
        """Random patterns sharing one Generator with one bound draw a
        round robin as one window in step order."""
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        window = [RandomPattern(MIB, 4 * KIB, seed=rng_a) for _ in range(3)]
        calls = [RandomPattern(MIB, 4 * KIB, seed=rng_b) for _ in range(3)]
        drawn = window[1].next_window(8, 100)
        want = np.stack([calls[(1 + i) % 3].next_batch(100) for i in range(8)])
        assert np.array_equal(drawn, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("slots", [1, 2, 5, 48, 97])
    @pytest.mark.parametrize("start", [0, 1, 46])
    def test_sequential_window(self, slots, start):
        window = SequentialPattern(slots * 4 * KIB, 4 * KIB, start=start % slots * 4 * KIB)
        calls = SequentialPattern(slots * 4 * KIB, 4 * KIB, start=start % slots * 4 * KIB)
        for rows, count in ((1, 1), (3, 7), (5, 48), (2, 500)):
            out = window.next_window(rows, count)
            assert out.shape == (rows, count)
            assert np.array_equal(out, _per_call(calls, rows, count))
            assert window._cursor == calls._cursor

    @pytest.mark.parametrize("slots", [2, 6, 12, 49, 100])
    @pytest.mark.parametrize("stride", [2, 3, 4])
    def test_stride_window(self, slots, stride):
        """Every residue class of the cursor, including cursors set
        from outside (a restored snapshot), draws its own cycle."""
        window = StridePattern(slots * 4 * KIB, 4 * KIB, stride_requests=stride)
        calls = StridePattern(slots * 4 * KIB, 4 * KIB, stride_requests=stride)
        for cursor in (None, 1, slots - 1, 0):
            if cursor is not None:
                window._cursor = calls._cursor = cursor
            for rows, count in ((1, 1), (4, 9), (3, 130)):
                assert np.array_equal(window.next_window(rows, count), _per_call(calls, rows, count))
                assert window._cursor == calls._cursor

    def test_window_does_not_alias_the_cycle(self):
        """The window is the caller's to transform in place."""
        gen = SequentialPattern(16 * KIB, 4 * KIB)
        first = gen.next_window(1, 4)
        first += 1
        assert gen.next_window(1, 4).tolist() == [[0, 4096, 8192, 12288]]
