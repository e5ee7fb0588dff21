"""Connected-component analysis of boolean masks on the square lattice.

The paper uses three facts about clusters of open (or "good") sites:
sub-critical clusters have exponentially decaying radius (Grimmett, Theorem
5.4, quoted as Theorem 5), super-critical open clusters contain most sites,
and the geometry of a cluster is captured by its radius in l1 distance.
This module provides the cluster labelling and per-cluster statistics that the
substrate benchmarks and the segregation analysis both rely on.

Connectivity is 4-neighbour (site percolation on ``Z^2``), optionally with
toroidal wrap-around because the model lives on a torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import PercolationError
from repro.percolation.union_find import UnionFind
from repro.rng import SeedLike, make_rng


def _union_runs(
    right: np.ndarray, down: np.ndarray, open_mask: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union-find over the horizontal runs of a 4-neighbour relation.

    ``right[i, j]`` joins site ``(i, j)`` to ``(i, (j + 1) % n_cols)`` and
    ``down[i, j]`` joins it to ``((i + 1) % n_rows, j)``; a ``False`` last
    column / row leaves that boundary open.  ``open_mask`` marks the sites
    that take part (``None``: all of them).  A run is a maximal horizontal
    stretch of sites joined left to right; only run starts enter the
    union-find.  Its unions come from the column seam (``right[:, -1]``) and
    the vertical joins, minus every vertical join that repeats its left
    neighbour's pair of runs.

    Returns ``(run_ids, starts, roots)``: every open site's row-major run
    index, the flat index of every run's first site, and every run's root,
    which is the smallest run index of its component (batched unions link
    towards the smaller index).  Run order is flat-index order, so ranking
    roots by run index ranks clusters by first row-major appearance.
    """
    n_sites = right.size
    n_cols = right.shape[1]
    is_start = np.ones(right.shape, dtype=bool) if open_mask is None else open_mask.copy()
    is_start[:, 1:] &= ~right[:, :-1]
    run_ids = np.cumsum(is_start.ravel()) - 1
    starts = np.flatnonzero(is_start)

    below_start = np.roll(is_start, -1, axis=0)
    vertical = down.copy()
    vertical[:, 1:] &= ~(down[:, :-1] & ~is_start[:, 1:] & ~below_start[:, 1:])
    upper = np.flatnonzero(vertical)
    seam = np.flatnonzero(right[:, -1]) * n_cols
    uf = UnionFind(starts.size)
    uf.union_many(
        np.concatenate((run_ids[seam + n_cols - 1], run_ids[upper])),
        np.concatenate((run_ids[seam], run_ids[(upper + n_cols) % n_sites])),
    )
    return run_ids.reshape(right.shape), starts, uf.labels()


def label_clusters(mask: np.ndarray, periodic: bool = False) -> np.ndarray:
    """Label 4-connected components of ``mask``.

    Returns an integer array of the same shape: ``-1`` outside the mask and a
    component id in ``0 .. n_components - 1`` inside, ids ordered by first
    (row-major) appearance.

    Two open neighbours are joined; :func:`_union_runs` collapses each
    horizontal run to its start and merges runs with one
    :meth:`~repro.percolation.union_find.UnionFind.union_many` call, so the
    labelling cost is a handful of array passes regardless of the mask.  The
    label arrays are bitwise identical to the scalar union/find oracle the
    property tests hold it to.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise PercolationError(f"mask must be 2-D, got shape {mask.shape}")
    labels = np.full(mask.shape, -1, dtype=np.int64)
    if not mask.any():
        return labels
    right = mask & np.roll(mask, -1, axis=1)
    down = mask & np.roll(mask, -1, axis=0)
    if not periodic:
        right[:, -1] = False
        down[-1, :] = False
    run_ids, _, roots = _union_runs(right, down, mask)
    is_root = roots == np.arange(roots.size)
    appearance_rank = np.cumsum(is_root) - 1
    labels[mask] = appearance_rank[roots][run_ids[mask]]
    return labels


def cluster_sizes(labels: np.ndarray) -> np.ndarray:
    """Sizes of every labelled cluster, indexed by label id."""
    labels = np.asarray(labels)
    valid = labels[labels >= 0]
    if valid.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(valid)


def largest_cluster_size(labels: np.ndarray) -> int:
    """Size of the largest cluster (0 when the mask is empty)."""
    sizes = cluster_sizes(labels)
    return int(sizes.max()) if sizes.size else 0


def cluster_containing(labels: np.ndarray, site: tuple[int, int]) -> np.ndarray:
    """Boolean mask of the cluster containing ``site`` (empty if site is closed)."""
    labels = np.asarray(labels)
    label = labels[site]
    if label < 0:
        return np.zeros_like(labels, dtype=bool)
    return labels == label


def _fold_l1_offsets(
    dr: np.ndarray, dc: np.ndarray, shape: tuple[int, int], periodic: bool
) -> np.ndarray:
    """Per-site l1 distances from absolute row/col offsets, torus-aware."""
    if periodic:
        dr = np.minimum(dr, shape[0] - dr)
        dc = np.minimum(dc, shape[1] - dc)
    return dr + dc


def cluster_radii(
    labels: np.ndarray, centers: np.ndarray, periodic: bool = False
) -> np.ndarray:
    """l1 radii of *every* labelled cluster measured from per-cluster centers.

    ``centers`` has shape ``(n_clusters, 2)``: row/column of the measurement
    origin of each cluster id (any value works for clusters the caller does
    not care about — their entries are computed but carry no meaning).  The
    result is an ``(n_clusters,)`` array whose entry ``c`` is
    ``max{|x - centers[c]|_1 : labels[x] == c}``, the paper's
    ``sup{Delta(0, x) : x in cluster}``.

    All clusters resolve in one label-indexed reduction pass: per-site l1
    distances to the owning cluster's center followed by a single
    ``np.maximum.at`` scatter — no per-cluster Python work, which is what
    makes the batched :func:`estimate_radius_tail` and the per-cluster
    geometry of large masks cheap.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise PercolationError(f"labels must be 2-D, got shape {labels.shape}")
    n_clusters = int(labels.max()) + 1 if labels.size else 0
    centers = np.asarray(centers, dtype=np.int64)
    if centers.shape != (n_clusters, 2):
        raise PercolationError(
            f"centers must have shape ({n_clusters}, 2), got {centers.shape}"
        )
    radii = np.zeros(n_clusters, dtype=np.int64)
    if n_clusters == 0:
        return radii
    rows, cols = np.nonzero(labels >= 0)
    owners = labels[rows, cols]
    distances = _fold_l1_offsets(
        np.abs(rows - centers[owners, 0]),
        np.abs(cols - centers[owners, 1]),
        labels.shape,
        periodic,
    )
    np.maximum.at(radii, owners, distances)
    return radii


@dataclass(frozen=True)
class ClusterBoundingStats:
    """Per-cluster sizes and (open-boundary) bounding boxes, indexed by label.

    All arrays have one entry per cluster id.  The bounding boxes ignore
    toroidal wrap-around — they describe each cluster's extent in array
    coordinates, the form size/extent screens over labelled masks consume
    (e.g. discarding clusters too small or too flat to reach a target
    radius before any per-cluster work).
    """

    sizes: np.ndarray
    min_row: np.ndarray
    max_row: np.ndarray
    min_col: np.ndarray
    max_col: np.ndarray

    @property
    def heights(self) -> np.ndarray:
        """Number of rows each cluster's bounding box spans."""
        return self.max_row - self.min_row + 1

    @property
    def widths(self) -> np.ndarray:
        """Number of columns each cluster's bounding box spans."""
        return self.max_col - self.min_col + 1


def cluster_bounding_stats(labels: np.ndarray) -> ClusterBoundingStats:
    """Sizes and bounding boxes of every labelled cluster in one reduction pass.

    One ``np.bincount`` resolves all sizes and four ``np.minimum.at`` /
    ``np.maximum.at`` scatters resolve all bounding boxes, regardless of how
    many clusters the mask contains.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise PercolationError(f"labels must be 2-D, got shape {labels.shape}")
    rows, cols = np.nonzero(labels >= 0)
    owners = labels[rows, cols]
    n_clusters = int(owners.max()) + 1 if owners.size else 0
    sizes = np.bincount(owners, minlength=n_clusters)
    min_row = np.full(n_clusters, labels.shape[0], dtype=np.int64)
    max_row = np.full(n_clusters, -1, dtype=np.int64)
    min_col = np.full(n_clusters, labels.shape[1], dtype=np.int64)
    max_col = np.full(n_clusters, -1, dtype=np.int64)
    np.minimum.at(min_row, owners, rows)
    np.maximum.at(max_row, owners, rows)
    np.minimum.at(min_col, owners, cols)
    np.maximum.at(max_col, owners, cols)
    return ClusterBoundingStats(
        sizes=sizes,
        min_row=min_row,
        max_row=max_row,
        min_col=min_col,
        max_col=max_col,
    )


def cluster_radius(
    labels: np.ndarray, site: tuple[int, int], periodic: bool = False
) -> int:
    """l1 radius of the cluster containing ``site`` measured from ``site``.

    Matches the paper's definition ``sup{Delta(0, x) : x in cluster}`` used in
    Lemma 14 and Grimmett's Theorem 5.4.  Returns ``-1`` when ``site`` is not
    in the mask.  The single-site form of :func:`cluster_radii`'s reduction
    (same distance folding), restricted to the one cluster's members so that
    scalar query loops — e.g. the Lemma 14 block analysis — never pay the
    all-clusters reduction per call; batched call sites should use
    :func:`cluster_radii` instead.
    """
    member = cluster_containing(labels, site)
    if not member[site]:
        return -1
    rows, cols = np.nonzero(member)
    distances = _fold_l1_offsets(
        np.abs(rows - site[0]), np.abs(cols - site[1]), member.shape, periodic
    )
    return int(distances.max())


#: Lattice-cell budget per batched radius-tail chunk (draw + composite +
#: labels stay within a few megabytes regardless of ``n_trials``).
_RADIUS_TAIL_CHUNK_CELLS = 1 << 20


@dataclass(frozen=True)
class RadiusTailEstimate:
    """Monte-Carlo estimate of ``P(cluster radius >= k)`` for several ``k``."""

    p_open: float
    radii: np.ndarray
    probabilities: np.ndarray
    n_trials: int

    def decay_rate(self) -> float:
        """Estimated exponential decay rate ``psi`` from a log-linear fit.

        Grimmett's Theorem 5.4 guarantees ``P(A_k) < e^{-k psi(p)}`` below
        criticality; the fitted slope of ``-log P`` against ``k`` estimates
        ``psi``.  Radii whose estimated probability is zero are ignored.
        """
        keep = self.probabilities > 0
        if keep.sum() < 2:
            raise PercolationError(
                "not enough non-zero tail probabilities to fit a decay rate"
            )
        slope, _ = np.polyfit(self.radii[keep], -np.log(self.probabilities[keep]), 1)
        return float(slope)


def estimate_radius_tail(
    p_open: float,
    radii: list[int],
    box_radius: int,
    n_trials: int,
    seed: SeedLike = None,
) -> RadiusTailEstimate:
    """Monte-Carlo estimate of the origin cluster radius tail at density ``p_open``.

    Draws ``n_trials`` independent Bernoulli configurations on a
    ``(2 box_radius + 1)``-sided box, conditions on the origin being open, and
    records how often the origin's cluster reaches l1 distance ``k`` for each
    requested ``k``.  Used by the E12 substrate benchmark to exhibit the
    exponential decay below criticality.

    Trials run batched in bounded chunks: each chunk is one
    ``(chunk, side, side)`` draw (sequential chunk draws consume the RNG
    stream exactly like per-trial draws), one labelling pass over a
    composite mask with a closed separator row between consecutive trials
    (so clusters cannot bridge them), and one :func:`cluster_radii`
    reduction for every origin cluster at once.  The chunk size caps memory
    at a few megabytes however large ``n_trials`` is.  Bitwise identical to
    a per-trial loop (one draw, labelling and :func:`cluster_radius` query
    per trial) under a fixed seed, which the property tests assert.
    """
    if not 0.0 <= p_open <= 1.0:
        raise PercolationError(f"p_open must lie in [0, 1], got {p_open}")
    if any(k > box_radius for k in radii):
        raise PercolationError("requested radii exceed the simulation box radius")
    rng = make_rng(seed)
    side = 2 * box_radius + 1
    radii_arr = np.asarray(sorted(radii), dtype=int)
    hits = np.zeros(radii_arr.size, dtype=np.int64)
    # Bound the per-chunk footprint (draw + composite + labels) to a few MB.
    chunk_size = max(_RADIUS_TAIL_CHUNK_CELLS // (side * side), 1)
    for chunk_start in range(0, max(n_trials, 0), chunk_size):
        chunk = min(chunk_size, n_trials - chunk_start)
        batch = rng.random((chunk, side, side)) < p_open
        batch[:, box_radius, box_radius] = True  # condition on the origin being open

        # Composite mask: trials stacked vertically with one always-closed
        # separator row in between, so a single (open-boundary) labelling
        # pass resolves every trial without clusters leaking across trials.
        composite = np.zeros((chunk, side + 1, side), dtype=bool)
        composite[:, :side, :] = batch
        labels = label_clusters(composite.reshape(chunk * (side + 1), side)[:-1])

        origin_rows = np.arange(chunk) * (side + 1) + box_radius
        origin_labels = labels[origin_rows, box_radius]
        n_clusters = int(labels.max()) + 1
        centers = np.zeros((n_clusters, 2), dtype=np.int64)
        centers[origin_labels, 0] = origin_rows
        centers[origin_labels, 1] = box_radius
        origin_radii = cluster_radii(labels, centers)[origin_labels]
        hits += (origin_radii[:, None] >= radii_arr[None, :]).sum(axis=0)
    return RadiusTailEstimate(
        p_open=p_open,
        radii=radii_arr,
        probabilities=hits / max(n_trials, 1),
        n_trials=max(n_trials, 0),
    )
