"""Tests for monochromatic / almost-monochromatic region analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    almost_monochromatic_radius_map_reference,
    monochromatic_radius_map_reference,
)
from repro.analysis.regions import (
    almost_monochromatic_radius_map,
    expected_almost_region_size,
    expected_region_size,
    minority_ratio_map,
    monochromatic_radius,
    monochromatic_radius_map,
    paper_ratio_threshold,
    region_scan_table,
    region_sizes_from_radii,
    summarize_regions,
)
from repro.errors import AnalysisError


def planted_square(side: int, block_radius: int) -> np.ndarray:
    """A -1 grid with a centred square of +1 of the given radius."""
    spins = -np.ones((side, side), dtype=np.int8)
    c = side // 2
    spins[c - block_radius : c + block_radius + 1, c - block_radius : c + block_radius + 1] = 1
    return spins


class TestMonochromaticRadius:
    def test_uniform_grid_reaches_limit(self):
        spins = np.ones((11, 11), dtype=np.int8)
        radii = monochromatic_radius_map(spins)
        assert np.all(radii == 5)  # (11-1)//2

    def test_checkerboard_has_zero_radius(self):
        rows, cols = np.indices((10, 10))
        spins = np.where((rows + cols) % 2 == 0, 1, -1).astype(np.int8)
        assert np.all(monochromatic_radius_map(spins) == 0)

    def test_planted_square_center_radius(self):
        spins = planted_square(21, 4)
        assert monochromatic_radius(spins, (10, 10)) == 4
        radii = monochromatic_radius_map(spins)
        assert radii[10, 10] == 4

    def test_planted_square_edge_radius_smaller(self):
        spins = planted_square(21, 4)
        # An agent at the edge of the planted square has radius 0 because its
        # 3x3 window already mixes both types.
        assert monochromatic_radius(spins, (10, 14)) == 0

    def test_map_matches_single_site_queries(self, rng):
        spins = np.where(rng.random((15, 15)) < 0.5, 1, -1).astype(np.int8)
        radii = monochromatic_radius_map(spins, max_radius=4)
        for site in [(0, 0), (7, 7), (14, 3)]:
            assert radii[site] == monochromatic_radius(spins, site, max_radius=4)

    def test_max_radius_caps_result(self):
        spins = np.ones((21, 21), dtype=np.int8)
        radii = monochromatic_radius_map(spins, max_radius=3)
        assert radii.max() == 3

    def test_negative_max_radius_rejected(self):
        with pytest.raises(AnalysisError):
            monochromatic_radius_map(np.ones((5, 5), dtype=np.int8), max_radius=-1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_window_at_reported_radius_is_monochromatic(self, seed):
        rng = np.random.default_rng(seed)
        spins = np.where(rng.random((13, 13)) < 0.5, 1, -1).astype(np.int8)
        radii = monochromatic_radius_map(spins, max_radius=3)
        row, col = int(rng.integers(0, 13)), int(rng.integers(0, 13))
        radius = int(radii[row, col])
        rows = np.arange(row - radius, row + radius + 1) % 13
        cols = np.arange(col - radius, col + radius + 1) % 13
        window = spins[np.ix_(rows, cols)]
        assert np.all(window == spins[row, col])


class TestMinorityRatioAndAlmost:
    def test_monochromatic_window_ratio_zero(self):
        spins = np.ones((9, 9), dtype=np.int8)
        assert np.all(minority_ratio_map(spins, 2) == 0.0)

    def test_balanced_window_ratio_near_one(self):
        rows, cols = np.indices((10, 10))
        spins = np.where((rows + cols) % 2 == 0, 1, -1).astype(np.int8)
        ratios = minority_ratio_map(spins, 2)
        assert np.all(ratios >= 12 / 13 - 1e-9)

    def test_almost_radius_at_least_monochromatic_radius(self, rng):
        spins = np.where(rng.random((17, 17)) < 0.5, 1, -1).astype(np.int8)
        mono = monochromatic_radius_map(spins, max_radius=4)
        almost = almost_monochromatic_radius_map(spins, 0.2, max_radius=4)
        assert np.all(almost >= mono)

    def test_threshold_one_gives_max_radius_everywhere(self, rng):
        spins = np.where(rng.random((11, 11)) < 0.5, 1, -1).astype(np.int8)
        almost = almost_monochromatic_radius_map(spins, 1.0, max_radius=3)
        assert np.all(almost == 3)

    def test_threshold_validation(self):
        with pytest.raises(AnalysisError):
            almost_monochromatic_radius_map(np.ones((5, 5), dtype=np.int8), 1.5)

    def test_paper_ratio_threshold_decreases_with_n(self):
        assert paper_ratio_threshold(81) < paper_ratio_threshold(25)

    def test_paper_ratio_threshold_validation(self):
        with pytest.raises(AnalysisError):
            paper_ratio_threshold(49, epsilon=0.0)

    def test_planted_square_with_single_defect_almost_monochromatic(self):
        spins = planted_square(25, 6)
        spins[12, 12] = -1  # one defect at the centre of the +1 square
        mono = monochromatic_radius_map(spins, max_radius=5)
        almost = almost_monochromatic_radius_map(spins, 0.1, max_radius=5)
        center = (12, 14)
        assert almost[center] > mono[center]


class TestSizesAndSummaries:
    def test_region_sizes_formula(self):
        radii = np.array([[0, 1], [2, 3]])
        sizes = region_sizes_from_radii(radii)
        assert sizes.tolist() == [[1, 9], [25, 49]]

    def test_summarize_regions(self):
        radii = np.array([[0, 1], [2, 3]])
        stats = summarize_regions(radii, horizon=2)
        assert stats.max_radius == 3
        assert stats.max_size == 49
        assert stats.mean_radius == pytest.approx(1.5)
        assert stats.fraction_at_least_horizon == pytest.approx(0.5)
        assert set(stats.as_dict()) == {
            "mean_radius",
            "max_radius",
            "mean_size",
            "max_size",
            "fraction_at_least_horizon",
        }

    def test_summarize_empty_rejected(self):
        with pytest.raises(AnalysisError):
            summarize_regions(np.zeros((0, 0)), horizon=1)

    def test_expected_region_size_uniform(self):
        spins = np.ones((9, 9), dtype=np.int8)
        assert expected_region_size(spins) == pytest.approx(81.0)

    def test_expected_almost_region_size_at_least_expected_region_size(self, rng):
        spins = np.where(rng.random((15, 15)) < 0.5, 1, -1).astype(np.int8)
        mono = expected_region_size(spins, max_radius=4)
        almost = expected_almost_region_size(spins, 0.3, max_radius=4)
        assert almost >= mono


class TestDoublingSearchEquivalence:
    """The doubling + binary search must reproduce the linear radius scan."""

    @staticmethod
    def _linear_scan(spins, site, max_radius=None):
        from repro.analysis.regions import _max_usable_radius

        limit = _max_usable_radius(spins.shape, max_radius)
        n_rows, n_cols = spins.shape
        row, col = site[0] % n_rows, site[1] % n_cols
        center_type = spins[row, col]
        best = 0
        for radius in range(1, limit + 1):
            rows = np.arange(row - radius, row + radius + 1) % n_rows
            cols = np.arange(col - radius, col + radius + 1) % n_cols
            if np.all(spins[np.ix_(rows, cols)] == center_type):
                best = radius
            else:
                break
        return best

    @settings(max_examples=80, deadline=None)
    @given(
        side=st.integers(min_value=1, max_value=25),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        row=st.integers(min_value=-30, max_value=30),
        col=st.integers(min_value=-30, max_value=30),
        cap=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
    )
    def test_matches_linear_scan_on_random_grids(self, side, density, seed, row, col, cap):
        rng = np.random.default_rng(seed)
        spins = np.where(rng.random((side, side)) < density, 1, -1).astype(np.int8)
        assert monochromatic_radius(spins, (row, col), cap) == self._linear_scan(
            spins, (row, col), cap
        )

    def test_matches_radius_map_everywhere(self):
        rng = np.random.default_rng(5)
        spins = np.where(rng.random((21, 21)) < 0.5, 1, -1).astype(np.int8)
        spins[4:12, 4:12] = 1  # a planted patch exercises larger radii
        radius_map = monochromatic_radius_map(spins)
        for row in range(21):
            for col in range(21):
                assert monochromatic_radius(spins, (row, col)) == radius_map[row, col]

    def test_planted_square_radius_found_by_doubling(self):
        spins = planted_square(41, 13)
        center = (20, 20)
        assert monochromatic_radius(spins, center) == 13
        assert monochromatic_radius(spins, center, max_radius=6) == 6


class TestRadiusMapEquivalence:
    """The dense per-level map must equal the linear-scan reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_rows=st.integers(min_value=5, max_value=30),
        n_cols=st.integers(min_value=5, max_value=30),
        density=st.floats(min_value=0.05, max_value=0.95),
        max_radius=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    )
    def test_matches_reference_on_random_grids(
        self, seed, n_rows, n_cols, density, max_radius
    ):
        rng = np.random.default_rng(seed)
        spins = np.where(rng.random((n_rows, n_cols)) < density, 1, -1).astype(np.int8)
        assert np.array_equal(
            monochromatic_radius_map(spins, max_radius=max_radius),
            monochromatic_radius_map_reference(spins, max_radius=max_radius),
        )

    def test_matches_reference_on_uniform_grid(self):
        spins = np.ones((23, 23), dtype=np.int8)
        for max_radius in (None, 3, 11):
            assert np.array_equal(
                monochromatic_radius_map(spins, max_radius=max_radius),
                monochromatic_radius_map_reference(spins, max_radius=max_radius),
            )

    def test_matches_reference_on_planted_structures(self):
        for spins in (
            planted_square(41, 13),
            np.where((np.arange(36)[:, None] // 9) % 2 == 0, 1, -1)
            * np.ones((36, 36), dtype=np.int64),
            np.indices((20, 20)).sum(axis=0) % 2 * 2 - 1,  # checkerboard
        ):
            spins = spins.astype(np.int8)
            assert np.array_equal(
                monochromatic_radius_map(spins),
                monochromatic_radius_map_reference(spins),
            )

    def test_matches_reference_on_rectangular_torus(self):
        rng = np.random.default_rng(5)
        spins = np.where(rng.random((11, 31)) < 0.4, 1, -1).astype(np.int8)
        assert np.array_equal(
            monochromatic_radius_map(spins),
            monochromatic_radius_map_reference(spins),
        )

    def test_zero_limit_returns_zeros(self):
        spins = np.ones((9, 9), dtype=np.int8)
        assert np.all(monochromatic_radius_map(spins, max_radius=0) == 0)


class TestAlmostRadiusMapEquivalence:
    """The dense lookup-table scan must equal the linear-scan reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_rows=st.integers(min_value=1, max_value=28),
        n_cols=st.integers(min_value=1, max_value=28),
        density=st.floats(min_value=0.0, max_value=1.0),
        ratio_threshold=st.one_of(
            st.sampled_from([0.0, 1.0]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        max_radius=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    )
    def test_matches_reference_on_random_grids(
        self, seed, n_rows, n_cols, density, ratio_threshold, max_radius
    ):
        rng = np.random.default_rng(seed)
        spins = np.where(rng.random((n_rows, n_cols)) < density, 1, -1).astype(np.int8)
        assert np.array_equal(
            almost_monochromatic_radius_map(
                spins, ratio_threshold, max_radius=max_radius
            ),
            almost_monochromatic_radius_map_reference(
                spins, ratio_threshold, max_radius=max_radius
            ),
        )

    @pytest.mark.parametrize("ratio_threshold", [0.0, 0.05, 0.5, 1.0])
    def test_matches_reference_on_planted_structures(self, ratio_threshold):
        checkerboard = (np.indices((20, 20)).sum(axis=0) % 2 * 2 - 1).astype(np.int8)
        defected = planted_square(25, 6)
        defected[12, 12] = -1
        for spins in (planted_square(41, 13), checkerboard, defected):
            assert np.array_equal(
                almost_monochromatic_radius_map(spins, ratio_threshold),
                almost_monochromatic_radius_map_reference(spins, ratio_threshold),
            )

    def test_matches_reference_on_rectangular_torus(self):
        rng = np.random.default_rng(12)
        spins = np.where(rng.random((9, 33)) < 0.35, 1, -1).astype(np.int8)
        for ratio_threshold in (0.0, 0.25, 1.0):
            assert np.array_equal(
                almost_monochromatic_radius_map(spins, ratio_threshold),
                almost_monochromatic_radius_map_reference(spins, ratio_threshold),
            )

    def test_max_radius_edge_cases(self):
        spins = planted_square(21, 5)
        for max_radius in (0, 1, 10, 100, None):
            assert np.array_equal(
                almost_monochromatic_radius_map(spins, 0.1, max_radius=max_radius),
                almost_monochromatic_radius_map_reference(
                    spins, 0.1, max_radius=max_radius
                ),
            )

    def test_threshold_zero_matches_monochromatic_qualification(self):
        rng = np.random.default_rng(3)
        spins = np.where(rng.random((17, 17)) < 0.5, 1, -1).astype(np.int8)
        strict = almost_monochromatic_radius_map(spins, 0.0, max_radius=4)
        reference = almost_monochromatic_radius_map_reference(spins, 0.0, max_radius=4)
        assert np.array_equal(strict, reference)

    def test_reference_rejects_invalid_threshold(self):
        with pytest.raises(AnalysisError):
            almost_monochromatic_radius_map_reference(
                np.ones((5, 5), dtype=np.int8), -0.1
            )


class TestSharedScanTable:
    """Both radius maps accept one precomputed summed-area table."""

    def test_shared_table_matches_fresh_scans(self):
        rng = np.random.default_rng(9)
        spins = np.where(rng.random((19, 19)) < 0.5, 1, -1).astype(np.int8)
        table = region_scan_table(spins, max_radius=5)
        assert np.array_equal(
            monochromatic_radius_map(spins, max_radius=5, table=table),
            monochromatic_radius_map(spins, max_radius=5),
        )
        assert np.array_equal(
            almost_monochromatic_radius_map(spins, 0.2, max_radius=5, table=table),
            almost_monochromatic_radius_map(spins, 0.2, max_radius=5),
        )

    def test_wider_table_reusable_for_smaller_caps(self):
        spins = planted_square(23, 7)
        table = region_scan_table(spins)  # padded to the torus limit
        for max_radius in (1, 4, 9):
            assert np.array_equal(
                monochromatic_radius_map(spins, max_radius=max_radius, table=table),
                monochromatic_radius_map(spins, max_radius=max_radius),
            )
            assert np.array_equal(
                almost_monochromatic_radius_map(
                    spins, 0.3, max_radius=max_radius, table=table
                ),
                almost_monochromatic_radius_map(spins, 0.3, max_radius=max_radius),
            )

    def test_undersized_table_rejected(self):
        spins = np.ones((15, 15), dtype=np.int8)
        small = region_scan_table(spins, max_radius=2)
        with pytest.raises(AnalysisError):
            monochromatic_radius_map(spins, max_radius=6, table=small)
        with pytest.raises(AnalysisError):
            almost_monochromatic_radius_map(spins, 0.1, max_radius=6, table=small)
