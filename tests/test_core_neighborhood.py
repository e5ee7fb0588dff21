"""Tests for neighbourhood geometry and window sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighborhood import (
    annulus_mask,
    disc_mask,
    neighborhood_offsets,
    neighborhood_size,
    radius_for_size,
    square_mask,
    torus_euclidean_distance,
    torus_l1_distance,
    torus_linf_distance,
    window_sums,
    wrapped_summed_area_table,
    wrapped_window_indices,
)
from repro.errors import ConfigurationError
from oracles import window_sums_reference
from tests.conftest import brute_force_window_sum


class TestNeighborhoodSize:
    @pytest.mark.parametrize("radius,expected", [(0, 1), (1, 9), (2, 25), (10, 441)])
    def test_values(self, radius, expected):
        assert neighborhood_size(radius) == expected

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            neighborhood_size(-1)

    @pytest.mark.parametrize("radius", [0, 1, 3, 7])
    def test_radius_for_size_inverts(self, radius):
        assert radius_for_size(neighborhood_size(radius)) == radius

    @pytest.mark.parametrize("size", [0, 2, 4, 16])
    def test_radius_for_size_rejects_invalid(self, size):
        with pytest.raises(ConfigurationError):
            radius_for_size(size)

    def test_paper_horizon_matches_figure1(self):
        # Figure 1 uses neighbourhood size 441, i.e. horizon 10.
        assert radius_for_size(441) == 10


class TestOffsets:
    def test_count_with_center(self):
        assert neighborhood_offsets(2).shape == (25, 2)

    def test_count_without_center(self):
        assert neighborhood_offsets(2, include_center=False).shape == (24, 2)

    def test_center_excluded(self):
        offsets = neighborhood_offsets(1, include_center=False)
        assert not any((dr == 0 and dc == 0) for dr, dc in offsets)

    def test_max_offset_is_radius(self):
        offsets = neighborhood_offsets(3)
        assert np.abs(offsets).max() == 3


class TestWrappedWindowIndices:
    def test_interior_window(self):
        rows, cols = wrapped_window_indices(10, 10, 5, 5, 1)
        assert rows.tolist() == [4, 5, 6]
        assert cols.tolist() == [4, 5, 6]

    def test_wraps_at_origin(self):
        rows, cols = wrapped_window_indices(10, 10, 0, 0, 1)
        assert rows.tolist() == [9, 0, 1]
        assert cols.tolist() == [9, 0, 1]

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            wrapped_window_indices(10, 10, 0, 0, -1)


class TestTorusDistances:
    def test_linf_wraps(self):
        assert torus_linf_distance((0, 0), (9, 9), 10, 10) == 1

    def test_l1_wraps(self):
        assert torus_l1_distance((0, 0), (9, 9), 10, 10) == 2

    def test_euclidean_wraps(self):
        assert torus_euclidean_distance((0, 0), (9, 0), 10, 10) == pytest.approx(1.0)

    def test_distances_symmetric(self):
        a, b = (2, 3), (7, 9)
        assert torus_linf_distance(a, b, 10, 12) == torus_linf_distance(b, a, 10, 12)
        assert torus_l1_distance(a, b, 10, 12) == torus_l1_distance(b, a, 10, 12)

    def test_zero_distance_to_self(self):
        assert torus_linf_distance((4, 4), (4, 4), 9, 9) == 0
        assert torus_l1_distance((4, 4), (4, 4), 9, 9) == 0


class TestWindowSums:
    def test_uniform_array(self):
        sums = window_sums(np.ones((8, 8), dtype=int), 1)
        assert np.all(sums == 9)

    def test_single_one_spreads_to_window(self):
        arr = np.zeros((9, 9), dtype=int)
        arr[4, 4] = 1
        sums = window_sums(arr, 2)
        assert sums[4, 4] == 1
        assert sums[2, 2] == 1
        assert sums[1, 4] == 0
        assert int(sums.sum()) == 25

    def test_radius_zero_is_identity(self):
        arr = np.arange(12).reshape(3, 4)
        assert np.array_equal(window_sums(arr, 0), arr)

    def test_window_larger_than_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            window_sums(np.ones((4, 4), dtype=int), 2)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            window_sums(np.ones(5, dtype=int), 1)

    def test_matches_brute_force_on_random_array(self, rng):
        arr = rng.integers(0, 2, size=(11, 13))
        sums = window_sums(arr, 2)
        for row, col in [(0, 0), (5, 6), (10, 12), (0, 12), (10, 0)]:
            assert sums[row, col] == brute_force_window_sum(arr, row, col, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        n_rows=st.integers(min_value=5, max_value=12),
        n_cols=st.integers(min_value=5, max_value=12),
        radius=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=10**6),
        n_replicas=st.integers(min_value=1, max_value=3),
    )
    def test_matches_brute_force_everywhere(
        self, n_rows, n_cols, radius, seed, n_replicas
    ):
        rng = np.random.default_rng(seed)
        stack = rng.integers(0, 3, size=(n_replicas, n_rows, n_cols))
        stack_sums = window_sums(stack, radius)
        row = int(rng.integers(0, n_rows))
        col = int(rng.integers(0, n_cols))
        for arr, sums in zip(stack, stack_sums):
            assert np.array_equal(sums, window_sums(arr, radius))
            assert np.array_equal(sums, window_sums_reference(arr, radius))
            assert sums[row, col] == brute_force_window_sum(arr, row, col, radius)

    def test_table_dtype_fits_padded_area_times_magnitude(self):
        flags = np.ones((4, 4), dtype=bool)
        assert wrapped_summed_area_table(flags, 1).dtype == np.int32
        large = np.full((4, 4), 2**28, dtype=np.int64)
        assert wrapped_summed_area_table(large, 1).dtype == np.int64
        assert np.all(window_sums(large, 1) == 9 * 2**28)

    def test_total_preserved(self, rng):
        arr = rng.integers(0, 2, size=(10, 10))
        sums = window_sums(arr, 1)
        assert int(sums.sum()) == int(arr.sum()) * 9


class TestMasks:
    def test_square_mask_size(self):
        mask = square_mask(20, 20, (10, 10), 2)
        assert int(mask.sum()) == 25

    def test_square_mask_wraps(self):
        mask = square_mask(10, 10, (0, 0), 1)
        assert mask[9, 9]
        assert int(mask.sum()) == 9

    def test_disc_mask_radius_one(self):
        mask = disc_mask(11, 11, (5, 5), 1.0)
        assert int(mask.sum()) == 5  # centre plus 4 axis neighbours

    def test_annulus_excludes_center(self):
        mask = annulus_mask(21, 21, (10, 10), 2.0, 4.0)
        assert not mask[10, 10]
        assert mask[10, 13]

    def test_annulus_invalid_radii_rejected(self):
        with pytest.raises(ConfigurationError):
            annulus_mask(10, 10, (5, 5), 4.0, 2.0)

    def test_square_mask_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            square_mask(10, 10, (5, 5), -1)

    def test_disc_inside_square(self):
        square = square_mask(15, 15, (7, 7), 3)
        disc = disc_mask(15, 15, (7, 7), 3.0)
        assert np.all(square[disc])
