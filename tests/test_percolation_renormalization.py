"""Tests for the block renormalisation substrate."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.percolation.renormalization import BlockGrid, divisible_block_side


class TestBlockGrid:
    def test_shape_and_counts(self):
        blocks = BlockGrid((12, 18), 3)
        assert blocks.shape == (4, 6)
        assert blocks.n_blocks == 24

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockGrid((10, 10), 3)

    def test_invalid_block_side_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockGrid((10, 10), 0)

    def test_block_of_site(self):
        blocks = BlockGrid((12, 12), 4)
        assert blocks.block_of_site(0, 0) == (0, 0)
        assert blocks.block_of_site(5, 9) == (1, 2)
        assert blocks.block_of_site(13, -1) == (0, 2)  # wraps

    def test_site_slice_roundtrip(self):
        blocks = BlockGrid((12, 12), 4)
        array = np.arange(144).reshape(12, 12)
        rows, cols = blocks.site_slice(2, 1)
        assert array[rows, cols].shape == (4, 4)
        assert array[rows, cols][0, 0] == array[8, 4]

    def test_site_slice_out_of_range(self):
        with pytest.raises(ConfigurationError):
            BlockGrid((12, 12), 4).site_slice(3, 0)

    def test_block_sums_match_manual(self):
        blocks = BlockGrid((6, 6), 3)
        array = np.arange(36).reshape(6, 6)
        sums = blocks.block_sums(array)
        assert sums.shape == (2, 2)
        assert sums[0, 0] == array[:3, :3].sum()
        assert sums[1, 1] == array[3:, 3:].sum()

    def test_block_means(self):
        blocks = BlockGrid((4, 4), 2)
        array = np.ones((4, 4)) * 3.0
        assert np.all(blocks.block_means(array) == 3.0)

    def test_block_all_and_any(self):
        blocks = BlockGrid((4, 4), 2)
        mask = np.zeros((4, 4), dtype=bool)
        mask[:2, :2] = True
        mask[2, 2] = True
        assert blocks.block_all(mask)[0, 0]
        assert not blocks.block_all(mask)[1, 1]
        assert blocks.block_any(mask)[1, 1]
        assert not blocks.block_any(mask)[0, 1]

    def test_expand_inverse_of_block_means_for_constant_blocks(self):
        blocks = BlockGrid((6, 6), 3)
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        expanded = blocks.expand(values)
        assert expanded.shape == (6, 6)
        assert np.all(expanded[:3, :3] == 1.0)
        assert np.all(expanded[3:, 3:] == 4.0)

    def test_expand_shape_checked(self):
        with pytest.raises(ConfigurationError):
            BlockGrid((6, 6), 3).expand(np.ones((3, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockGrid((6, 6), 3).block_sums(np.ones((5, 6)))


class TestDivisibleBlockSide:
    def test_exact_divisor_kept(self):
        assert divisible_block_side(60, 6) == 6

    def test_rounds_down_to_divisor(self):
        assert divisible_block_side(60, 7) == 6

    def test_at_least_one(self):
        assert divisible_block_side(13, 5) == 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            divisible_block_side(0, 5)
