"""Whole-configuration segregation metrics.

These are the scalar observables the sweep benchmarks report for every
``(tau, w, seed)`` cell: unhappy fraction, local homogeneity (the average of
the paper's ``s(u)``), interface density, mean monochromatic region size and
the largest same-type cluster fraction.  All of them are computed directly
from a spin array plus the model horizon/threshold, so they apply equally to
initial, intermediate and terminated configurations.

A bundle is nine integer counts and the float fields formed from them.  The
compiled library (``repro_measure`` in
:mod:`repro.core.backends.cffi_backend`) counts a whole replica stack in one
native call; a host without a C toolchain counts with the numpy
:func:`_measure`.  Both give the same integers, so a row's bytes do not
depend on which one ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.clusters import _largest_same_type_cluster, _same_type_joins
from repro.analysis.regions import (
    _check_ratio_threshold,
    _max_usable_radius,
    _qualification_cutoffs,
    _radius_scans,
    expected_region_size,
    paper_ratio_threshold,
    region_sizes_from_radii,
)
from repro.core.backends.cffi_backend import (
    MEASURE_CELL_LIMIT,
    cffi_available,
    measure_counts,
)
from repro.core.config import ModelConfig
from repro.core.lyapunov import same_type_count_field
from repro.core.neighborhood import (
    require_window_fits,
    window_counts,
    wrapped_summed_area_table,
)
from repro.errors import AnalysisError
from repro.utils.validation import require_spin_array


def default_region_radius(config: ModelConfig) -> int:
    """The region-scan radius cap used by every entry point of the pipeline.

    Region scans cost grows with the radius while all of the finite-size
    signal lives within a few multiples of the horizon, so the metrics cap
    the scans at ``min(4 * w, largest radius that fits on the torus)``.  The
    sweep runner, the CLI and :func:`segregation_gain` all share this one
    helper so the same measurement saturates identically no matter how it is
    invoked (callers can still override the cap explicitly).
    """
    return min(4 * config.horizon, (min(config.shape) - 1) // 2)


def unhappy_fraction(spins: np.ndarray, config: ModelConfig) -> float:
    """Fraction of agents that are unhappy under ``config``'s threshold."""
    spins = require_spin_array(spins)
    same = same_type_count_field(spins, config.horizon)
    return float(np.mean(same < config.happiness_threshold))


def local_homogeneity(spins: np.ndarray, horizon: int) -> float:
    """Average of ``s(u)`` over all agents (0.5 for a random grid, 1.0 when segregated)."""
    spins = require_spin_array(spins)
    same = same_type_count_field(spins, horizon)
    return float(same.mean() / (2 * horizon + 1) ** 2)


def interface_density(spins: np.ndarray) -> float:
    """Fraction of adjacent (4-neighbour, toroidal) pairs with opposite types.

    0 for a fully segregated grid, about 0.5 for an independent random one and
    1.0 for a perfect checkerboard.
    """
    spins = require_spin_array(spins)
    right, down = _same_type_joins(spins)
    return _interface_density(
        spins.size, int(np.count_nonzero(right)), int(np.count_nonzero(down))
    )


def _interface_density(n_sites: int, right_joins: int, down_joins: int) -> float:
    """:func:`interface_density` from the counts of same-type edge joins."""
    horizontal = (n_sites - right_joins) / n_sites
    vertical = (n_sites - down_joins) / n_sites
    return (horizontal + vertical) / 2.0


@dataclass(frozen=True)
class SegregationMetrics:
    """Scalar segregation summary of one configuration."""

    unhappy_fraction: float
    local_homogeneity: float
    interface_density: float
    mean_monochromatic_size: float
    mean_almost_monochromatic_size: float
    max_monochromatic_radius: int
    largest_cluster_fraction: float
    dominant_type_fraction: float
    energy: int

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for result tables / CSV export."""
        return {
            "unhappy_fraction": self.unhappy_fraction,
            "local_homogeneity": self.local_homogeneity,
            "interface_density": self.interface_density,
            "mean_monochromatic_size": self.mean_monochromatic_size,
            "mean_almost_monochromatic_size": self.mean_almost_monochromatic_size,
            "max_monochromatic_radius": float(self.max_monochromatic_radius),
            "largest_cluster_fraction": self.largest_cluster_fraction,
            "dominant_type_fraction": self.dominant_type_fraction,
            "energy": float(self.energy),
        }


def _measurement_plan(
    shape: tuple[int, int],
    config: ModelConfig,
    max_region_radius: Optional[int],
    ratio_threshold: Optional[float],
) -> tuple[int, int, np.ndarray]:
    """Validate the measurement arguments for one grid shape.

    Returns ``(limit, pad, cutoffs)``: the region-scan limit, the padding of
    the one scan table that serves both the scans and the horizon window (so
    ``max(limit, w)``), and each level's almost-monochromatic plus-count
    cutoff (:func:`~repro.analysis.regions._qualification_cutoffs`).
    """
    if ratio_threshold is None:
        ratio_threshold = paper_ratio_threshold(config.neighborhood_agents)
    limit = _max_usable_radius(shape, max_region_radius)
    _check_ratio_threshold(ratio_threshold)
    require_window_fits(shape, config.horizon)
    cutoffs = _qualification_cutoffs(ratio_threshold, limit)
    return limit, max(limit, config.horizon), cutoffs


def _measure(
    spins: np.ndarray,
    config: ModelConfig,
    limit: int,
    pad: int,
    cutoffs: np.ndarray,
) -> tuple[int, ...]:
    """The integer counts behind one validated configuration's bundle, in numpy.

    The path for hosts without a C toolchain; ``repro_measure`` in the
    compiled library computes the same nine counts in the same order
    (:func:`_metrics_from_counts` names them).  One scan table padded by
    ``pad`` serves every window count: the dense region scans of both
    radius maps and the horizon window behind the unhappy count and the
    energy.  One labelling of the same-type relation gives the largest
    cluster of either type, and its edge joins the join counts.
    """
    plus = spins == 1
    table = wrapped_summed_area_table(plus, pad)
    radii, almost_radii = _radius_scans(table, pad, spins.shape, limit, cutoffs)
    plus_counts = window_counts(table, pad, spins.shape, config.horizon)
    same = np.where(plus, plus_counts, config.neighborhood_agents - plus_counts)
    right, down = _same_type_joins(spins)
    return (
        int(np.count_nonzero(same < config.happiness_threshold)),
        int(same.sum(dtype=np.int64)),
        int(np.count_nonzero(plus)),
        int(np.count_nonzero(right)),
        int(np.count_nonzero(down)),
        int(region_sizes_from_radii(radii).sum()),
        int(region_sizes_from_radii(almost_radii).sum()),
        int(radii.max()),
        _largest_same_type_cluster(right, down),
    )


def _metrics_from_counts(
    counts: Sequence[int], config: ModelConfig, n_sites: int
) -> SegregationMetrics:
    """The bundle formed from one replica's nine integer counts.

    Every float field is an exact integer divided by the site count (or by
    the neighbourhood size after it); integer sums are exact in float64,
    so ``count / n_sites`` is bitwise the ``np.mean`` of the per-site
    formula.
    """
    (
        n_unhappy, energy, n_plus, right_joins, down_joins,
        mono_sizes, almost_sizes, max_radius, largest_cluster,
    ) = counts
    return SegregationMetrics(
        unhappy_fraction=n_unhappy / n_sites,
        # same.mean() / N, in that order of operations.
        local_homogeneity=energy / n_sites / config.neighborhood_agents,
        interface_density=_interface_density(n_sites, right_joins, down_joins),
        mean_monochromatic_size=mono_sizes / n_sites,
        mean_almost_monochromatic_size=almost_sizes / n_sites,
        max_monochromatic_radius=max_radius,
        largest_cluster_fraction=largest_cluster / n_sites,
        dominant_type_fraction=max(n_plus, n_sites - n_plus) / n_sites,
        energy=energy,
    )


def _measure_stack(
    stack: np.ndarray,
    config: ModelConfig,
    max_region_radius: Optional[int],
    ratio_threshold: Optional[float],
) -> list[SegregationMetrics]:
    """The bundles of a validated non-empty ``(R, n, m)`` stack.

    The compiled library measures the whole stack in one native call
    (``repro_measure``, one replica at a time in scratch sized to one grid)
    whenever it loads; otherwise, or for a grid whose padded table would
    outgrow its int32 counts, the numpy :func:`_measure` runs per replica.
    Both give the same integers, and one formula turns them into fields.
    """
    n_rows, n_cols = stack.shape[1:]
    limit, pad, cutoffs = _measurement_plan(
        (n_rows, n_cols), config, max_region_radius, ratio_threshold
    )
    cells = (n_rows + 2 * pad + 1) * (n_cols + 2 * pad + 1)
    if cells < MEASURE_CELL_LIMIT and cffi_available():
        counts = measure_counts(
            np.ascontiguousarray(stack, dtype=np.int8),
            config.horizon,
            config.happiness_threshold,
            limit,
            pad,
            cutoffs,
        )
    else:
        counts = [_measure(replica, config, limit, pad, cutoffs) for replica in stack]
    return [_metrics_from_counts(row, config, n_rows * n_cols) for row in counts]


def segregation_metrics(
    spins: np.ndarray,
    config: ModelConfig,
    max_region_radius: Optional[int] = None,
    ratio_threshold: Optional[float] = None,
) -> SegregationMetrics:
    """Compute the full :class:`SegregationMetrics` bundle for one configuration.

    ``max_region_radius`` caps the (quadratic-in-radius) region scans; the
    sweep harness sets it to a few multiples of the horizon, which is where
    all of the finite-size signal lives.  ``ratio_threshold`` defaults to the
    paper's ``e^{-eps N}`` with the package default ``eps``.  This is the
    one-replica case of :func:`segregation_metrics_batch`.
    """
    spins = require_spin_array(spins)
    return _measure_stack(spins[np.newaxis], config, max_region_radius, ratio_threshold)[0]


def segregation_metrics_batch(
    spins_stack: np.ndarray,
    config: ModelConfig,
    max_region_radius: Optional[int] = None,
    ratio_threshold: Optional[float] = None,
) -> list[SegregationMetrics]:
    """Compute :func:`segregation_metrics` for a whole ``(R, n, n)`` stack.

    This is the measurement back end of the ensemble runner.  The stack is
    validated in one pass and the arguments once (scan limit, threshold
    tables), then one kernel measures each replica in turn: the compiled
    library in one native call for the whole stack, or the numpy kernel on
    a host without a C toolchain.  Replicas are measured one at a time on
    purpose: either kernel's scratch is sized to one grid, and the numpy
    kernel run over the whole stack at once was both slower and R times
    larger in peak memory.  Entry ``r`` is bitwise
    identical to ``segregation_metrics(spins_stack[r], ...)``, the
    engine-independence contract the runner's regression tests lock down.
    An empty stack measures to ``[]``.
    """
    stack = np.asarray(spins_stack)
    if stack.ndim != 3:
        raise AnalysisError(
            f"spins_stack must be a (R, n, n) array, got shape {stack.shape}"
        )
    if not len(stack):
        return []
    n_replicas, n_rows, n_cols = stack.shape
    stack = require_spin_array(stack.reshape(n_replicas * n_rows, n_cols)).reshape(
        stack.shape
    )
    return _measure_stack(stack, config, max_region_radius, ratio_threshold)


def segregation_gain(
    initial_spins: np.ndarray, final_spins: np.ndarray, config: ModelConfig
) -> dict[str, float]:
    """Before/after comparison of the main metrics for a single run.

    Returns a dict with ``initial_*``, ``final_*`` and ``delta_*`` entries for
    local homogeneity, interface density and mean monochromatic region size —
    the three quantities whose movement demonstrates self-organised
    segregation in the Figure 1 experiment.
    """
    max_region_radius = default_region_radius(config)
    before = segregation_metrics(initial_spins, config, max_region_radius=max_region_radius)
    after = segregation_metrics(final_spins, config, max_region_radius=max_region_radius)
    result: dict[str, float] = {}
    for name in ("local_homogeneity", "interface_density", "mean_monochromatic_size"):
        initial_value = getattr(before, name)
        final_value = getattr(after, name)
        result[f"initial_{name}"] = initial_value
        result[f"final_{name}"] = final_value
        result[f"delta_{name}"] = final_value - initial_value
    return result


def expected_monochromatic_size(spins: np.ndarray, max_radius: Optional[int] = None) -> float:
    """Alias of :func:`repro.analysis.regions.expected_region_size` (E[M] estimator)."""
    return expected_region_size(spins, max_radius=max_radius)
