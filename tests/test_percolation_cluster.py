"""Tests for cluster labelling and radius statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import estimate_radius_tail_reference, label_clusters_reference
from repro.errors import PercolationError
from repro.percolation.cluster import (
    cluster_bounding_stats,
    cluster_containing,
    cluster_radii,
    cluster_radius,
    cluster_sizes,
    estimate_radius_tail,
    label_clusters,
    largest_cluster_size,
)


class TestLabelClusters:
    def test_empty_mask(self):
        labels = label_clusters(np.zeros((4, 4), dtype=bool))
        assert np.all(labels == -1)
        assert largest_cluster_size(labels) == 0

    def test_full_mask_single_cluster(self):
        labels = label_clusters(np.ones((4, 4), dtype=bool))
        assert labels.max() == 0
        assert largest_cluster_size(labels) == 16

    def test_two_separate_clusters(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = True
        mask[4, 4] = True
        labels = label_clusters(mask)
        assert labels[0, 0] != labels[4, 4]
        assert len(cluster_sizes(labels)) == 2

    def test_diagonal_not_connected(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        mask[1, 1] = True
        labels = label_clusters(mask)
        assert labels[0, 0] != labels[1, 1]

    def test_l_shape_is_one_cluster(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, :3] = True
        mask[1, 0] = True
        labels = label_clusters(mask)
        assert largest_cluster_size(labels) == 4
        assert len(cluster_sizes(labels)) == 1

    def test_periodic_wraps_edges(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 2] = True
        mask[4, 2] = True
        open_labels = label_clusters(mask, periodic=False)
        torus_labels = label_clusters(mask, periodic=True)
        assert open_labels[0, 2] != open_labels[4, 2]
        assert torus_labels[0, 2] == torus_labels[4, 2]

    def test_non_2d_rejected(self):
        with pytest.raises(PercolationError):
            label_clusters(np.zeros(5, dtype=bool))

    def test_cluster_sizes_match_mask_total(self, rng):
        mask = rng.random((12, 12)) < 0.5
        labels = label_clusters(mask)
        assert cluster_sizes(labels).sum() == mask.sum()


class TestClusterQueries:
    def test_cluster_containing(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 1:4] = True
        labels = label_clusters(mask)
        member = cluster_containing(labels, (2, 2))
        assert member.sum() == 3
        assert member[2, 1] and member[2, 3]

    def test_cluster_containing_closed_site(self):
        labels = label_clusters(np.zeros((4, 4), dtype=bool))
        assert cluster_containing(labels, (1, 1)).sum() == 0

    def test_cluster_radius_line(self):
        mask = np.zeros((7, 7), dtype=bool)
        mask[3, 1:6] = True
        labels = label_clusters(mask)
        assert cluster_radius(labels, (3, 3)) == 2
        assert cluster_radius(labels, (3, 1)) == 4

    def test_cluster_radius_of_closed_site(self):
        labels = label_clusters(np.zeros((4, 4), dtype=bool))
        assert cluster_radius(labels, (0, 0)) == -1

    def test_cluster_radius_periodic(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        mask[5, 0] = True
        labels = label_clusters(mask, periodic=True)
        assert cluster_radius(labels, (0, 0), periodic=True) == 1


class TestRadiusTail:
    def test_probabilities_monotone_in_radius(self, rng):
        estimate = estimate_radius_tail(0.4, [1, 2, 3], box_radius=5, n_trials=200, seed=rng)
        probs = estimate.probabilities
        assert np.all(np.diff(probs) <= 0)

    def test_subcritical_decay_rate_positive(self, rng):
        estimate = estimate_radius_tail(
            0.3, [1, 2, 3, 4], box_radius=6, n_trials=500, seed=rng
        )
        assert estimate.decay_rate() > 0

    def test_supercritical_tail_heavier_than_subcritical(self, rng):
        sub = estimate_radius_tail(0.3, [3], box_radius=5, n_trials=300, seed=rng)
        sup = estimate_radius_tail(0.8, [3], box_radius=5, n_trials=300, seed=rng)
        assert sup.probabilities[0] > sub.probabilities[0]

    def test_radius_exceeding_box_rejected(self, rng):
        with pytest.raises(PercolationError):
            estimate_radius_tail(0.4, [10], box_radius=5, n_trials=10, seed=rng)

    def test_invalid_probability_rejected(self, rng):
        with pytest.raises(PercolationError):
            estimate_radius_tail(1.4, [1], box_radius=5, n_trials=10, seed=rng)

    def test_decay_rate_requires_nonzero_tail(self, rng):
        estimate = estimate_radius_tail(0.01, [4, 5], box_radius=6, n_trials=50, seed=rng)
        if np.count_nonzero(estimate.probabilities > 0) < 2:
            with pytest.raises(PercolationError):
                estimate.decay_rate()

    def test_integer_seed_accepted(self):
        a = estimate_radius_tail(0.4, [1, 2], box_radius=4, n_trials=50, seed=11)
        b = estimate_radius_tail(0.4, [1, 2], box_radius=4, n_trials=50, seed=11)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_zero_trials_report_zero_tail(self):
        estimate = estimate_radius_tail(0.4, [1, 2], box_radius=4, n_trials=0, seed=0)
        assert estimate.n_trials == 0
        assert np.all(estimate.probabilities == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        p_open=st.floats(min_value=0.0, max_value=1.0),
        box_radius=st.integers(min_value=1, max_value=5),
        n_trials=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batched_matches_loop_reference(self, p_open, box_radius, n_trials, seed):
        radii = list(range(1, box_radius + 1))
        batched = estimate_radius_tail(
            p_open, radii, box_radius=box_radius, n_trials=n_trials, seed=seed
        )
        loop = estimate_radius_tail_reference(
            p_open, radii, box_radius=box_radius, n_trials=n_trials, seed=seed
        )
        assert np.array_equal(batched.probabilities, loop.probabilities)
        assert batched.n_trials == loop.n_trials
        assert np.array_equal(batched.radii, loop.radii)

    def test_chunk_boundaries_preserve_the_stream(self, monkeypatch):
        # The memory-bounding chunk loop must consume the RNG stream exactly
        # like one big draw; a tiny chunk budget forces many boundaries.
        import repro.percolation.cluster as cluster_module

        monkeypatch.setattr(cluster_module, "_RADIUS_TAIL_CHUNK_CELLS", 200)
        chunked = estimate_radius_tail(0.45, [1, 2, 3], box_radius=4, n_trials=57, seed=9)
        loop = estimate_radius_tail_reference(
            0.45, [1, 2, 3], box_radius=4, n_trials=57, seed=9
        )
        assert np.array_equal(chunked.probabilities, loop.probabilities)


def _first_site_centers(labels: np.ndarray) -> np.ndarray:
    """Each cluster's first row-major site, as a (n_clusters, 2) array."""
    n_clusters = int(labels.max()) + 1 if labels.size else 0
    centers = np.zeros((max(n_clusters, 0), 2), dtype=np.int64)
    seen: set[int] = set()
    for row in range(labels.shape[0]):
        for col in range(labels.shape[1]):
            label = int(labels[row, col])
            if label >= 0 and label not in seen:
                centers[label] = (row, col)
                seen.add(label)
    return centers


class TestClusterRadiiBatch:
    """cluster_radii must agree with per-site cluster_radius loops.

    ``cluster_radius`` extracts one cluster's members and reduces their
    distances directly — an independent computation from the label-indexed
    ``np.maximum.at`` scatter of ``cluster_radii`` — so the loop is a
    genuine equivalence oracle for the batch.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=18),
        n_cols=st.integers(min_value=1, max_value=18),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        periodic=st.booleans(),
    )
    def test_matches_per_site_loop(self, n_rows, n_cols, density, seed, periodic):
        mask = np.random.default_rng(seed).random((n_rows, n_cols)) < density
        labels = label_clusters(mask, periodic=periodic)
        centers = _first_site_centers(labels)
        batched = cluster_radii(labels, centers, periodic=periodic)
        for label, center in enumerate(centers):
            assert batched[label] == cluster_radius(
                labels, tuple(center), periodic=periodic
            )

    def test_empty_labels_give_empty_radii(self):
        labels = label_clusters(np.zeros((4, 4), dtype=bool))
        assert cluster_radii(labels, np.zeros((0, 2), dtype=np.int64)).size == 0

    def test_center_shape_validated(self):
        labels = label_clusters(np.ones((3, 3), dtype=bool))
        with pytest.raises(PercolationError):
            cluster_radii(labels, np.zeros((5, 2), dtype=np.int64))

    def test_non_2d_labels_rejected(self):
        with pytest.raises(PercolationError):
            cluster_radii(np.zeros(4, dtype=np.int64), np.zeros((1, 2)))

    def test_periodic_wraps_distances(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        mask[5, 0] = True
        labels = label_clusters(mask, periodic=True)
        centers = np.array([[0, 0]], dtype=np.int64)
        assert cluster_radii(labels, centers, periodic=True)[0] == 1
        assert cluster_radii(labels, centers, periodic=False)[0] == 5


class TestClusterBoundingStats:
    def test_sizes_match_cluster_sizes(self, rng):
        mask = rng.random((14, 10)) < 0.5
        labels = label_clusters(mask)
        stats = cluster_bounding_stats(labels)
        assert np.array_equal(stats.sizes, cluster_sizes(labels))

    def test_bounding_boxes_cover_members(self, rng):
        mask = rng.random((12, 12)) < 0.55
        labels = label_clusters(mask)
        stats = cluster_bounding_stats(labels)
        for label in range(int(labels.max()) + 1):
            rows, cols = np.nonzero(labels == label)
            assert stats.min_row[label] == rows.min()
            assert stats.max_row[label] == rows.max()
            assert stats.min_col[label] == cols.min()
            assert stats.max_col[label] == cols.max()
            assert stats.heights[label] == rows.max() - rows.min() + 1
            assert stats.widths[label] == cols.max() - cols.min() + 1

    def test_empty_mask(self):
        labels = label_clusters(np.zeros((3, 3), dtype=bool))
        stats = cluster_bounding_stats(labels)
        assert stats.sizes.size == 0

    def test_non_2d_rejected(self):
        with pytest.raises(PercolationError):
            cluster_bounding_stats(np.zeros(4, dtype=np.int64))


class TestLabelingEquivalence:
    """The vectorized labeller must be bitwise identical to the reference."""

    @settings(max_examples=120, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=24),
        n_cols=st.integers(min_value=1, max_value=24),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        periodic=st.booleans(),
    )
    def test_matches_reference_on_random_masks(self, n_rows, n_cols, density, seed, periodic):
        mask = np.random.default_rng(seed).random((n_rows, n_cols)) < density
        expected = label_clusters_reference(mask, periodic=periodic)
        actual = label_clusters(mask, periodic=periodic)
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize(
        "mask",
        [
            np.zeros((6, 6), dtype=bool),
            np.ones((6, 6), dtype=bool),
            np.ones((1, 9), dtype=bool),
            np.ones((9, 1), dtype=bool),
            np.array([[True, False, True, False, True]]),
            np.array([[True], [False], [True], [False]]),
            np.ones((1, 1), dtype=bool),
        ],
        ids=["empty", "full", "single-row", "single-col", "alt-row", "alt-col", "1x1"],
    )
    def test_matches_reference_on_edge_cases(self, mask, periodic):
        expected = label_clusters_reference(mask, periodic=periodic)
        actual = label_clusters(mask, periodic=periodic)
        assert np.array_equal(actual, expected)

    def test_labels_ordered_by_first_appearance(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 3] = True   # first in row-major order -> label 0
        mask[1, 0] = True   # second -> label 1
        mask[3, 2] = True   # third -> label 2
        labels = label_clusters(mask)
        assert labels[0, 3] == 0 and labels[1, 0] == 1 and labels[3, 2] == 2

    def test_checkerboard_has_no_merges(self):
        mask = np.indices((8, 8)).sum(axis=0) % 2 == 0
        labels = label_clusters(mask, periodic=True)
        assert cluster_sizes(labels).tolist() == [1] * int(mask.sum())

    def test_reference_rejects_non_2d(self):
        with pytest.raises(PercolationError):
            label_clusters_reference(np.zeros(4, dtype=bool))
