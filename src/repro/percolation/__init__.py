"""Percolation substrates used by the paper's proofs and benchmarks.

Measurement pipeline
--------------------
Cluster labelling is the hottest measurement path of the whole repository —
it underlies :mod:`repro.analysis.clusters`, :mod:`repro.analysis.segregation`
and every cluster-reporting benchmark — and is fully batched:

* :class:`~repro.percolation.union_find.UnionFind` exposes array APIs next to
  the scalar ones: ``union_many(a, b)`` merges whole edge lists per NumPy
  call (min-index linking, O(log) convergence passes) and ``find_many(idx)``
  resolves whole index arrays with vectorized path compression (active-set
  walk plus path halving).  Scalar and batched calls compose on one
  structure; component counts and sizes stay exact either way.
* :func:`~repro.percolation.cluster.label_clusters` labels 4-connected
  components with zero Python-per-edge/per-site work: only horizontal run
  starts enter the union-find, vertical joins that repeat their left
  neighbour's pair of runs are skipped, the rest go through one
  ``union_many`` call and labels come from one ``find_many`` pass.  The
  same run-level union-find labels the same-type relation of a whole
  configuration in one pass for the segregation metrics.  Output is
  bitwise identical to the scalar reference implementation
  (``label_clusters_reference`` in ``tests/oracles.py``, property-tested
  against it), at >= 10x its speed on 512x512 masks
  (``benchmarks/bench_cluster_labeling.py``).
"""

from repro.percolation.chemical import (
    StretchEstimate,
    chemical_distance,
    estimate_chemical_stretch,
    l1_distance,
)
from repro.percolation.cluster import (
    ClusterBoundingStats,
    RadiusTailEstimate,
    cluster_bounding_stats,
    cluster_containing,
    cluster_radii,
    cluster_radius,
    cluster_sizes,
    estimate_radius_tail,
    label_clusters,
    largest_cluster_size,
)
from repro.percolation.first_passage import (
    FirstPassagePercolation,
    PassageTimeStudy,
    exponential_passage_times,
    study_passage_times,
    time_constant_curve,
    uniform_passage_times,
)
from repro.percolation.renormalization import BlockGrid, divisible_block_side
from repro.percolation.site import (
    SQUARE_SITE_CRITICAL_PROBABILITY,
    SitePercolation,
    ThetaEstimate,
    estimate_theta,
    is_supercritical,
)
from repro.percolation.union_find import UnionFind

__all__ = [
    "BlockGrid",
    "ClusterBoundingStats",
    "FirstPassagePercolation",
    "PassageTimeStudy",
    "RadiusTailEstimate",
    "SQUARE_SITE_CRITICAL_PROBABILITY",
    "SitePercolation",
    "StretchEstimate",
    "ThetaEstimate",
    "UnionFind",
    "chemical_distance",
    "cluster_bounding_stats",
    "cluster_containing",
    "cluster_radii",
    "cluster_radius",
    "cluster_sizes",
    "divisible_block_side",
    "estimate_chemical_stretch",
    "estimate_radius_tail",
    "estimate_theta",
    "exponential_passage_times",
    "is_supercritical",
    "l1_distance",
    "label_clusters",
    "largest_cluster_size",
    "study_passage_times",
    "time_constant_curve",
    "uniform_passage_times",
]
