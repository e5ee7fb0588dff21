"""Monochromatic and almost monochromatic regions.

The paper's central observable is the *monochromatic region* of an agent
``u``: the largest-radius neighbourhood (square window) around ``u`` that
contains agents of a single type in the terminated configuration, and whose
size ``M`` Theorem 1 brackets between ``2^{aN}`` and ``2^{bN}``.  Theorem 2
replaces "single type" with "almost monochromatic": the ratio of minority to
majority agents inside the window is at most ``e^{-eps N}``.

Everything here operates on plain ±1 spin arrays so that it can be applied to
snapshots, final states or planted configurations alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.neighborhood import (
    neighborhood_size,
    window_counts,
    window_sums,
    wrapped_summed_area_table,
)
from repro.errors import AnalysisError
from repro.utils.validation import require_spin_array


def _max_usable_radius(shape: tuple[int, int], max_radius: Optional[int]) -> int:
    """Largest window radius that still fits on the torus."""
    limit = (min(shape) - 1) // 2
    if max_radius is None:
        return limit
    if max_radius < 0:
        raise AnalysisError(f"max_radius must be non-negative, got {max_radius}")
    return min(max_radius, limit)


def region_scan_table(spins: np.ndarray, max_radius: Optional[int] = None) -> np.ndarray:
    """Shared summed-area table for the region scans of one configuration.

    Both :func:`monochromatic_radius_map` and
    :func:`almost_monochromatic_radius_map` read window counts from a
    summed-area table of the plus indicator, torus-padded by the scan
    limit (:func:`~repro.core.neighborhood.wrapped_summed_area_table`).
    Building the table once and passing it to both scans halves the
    table-construction cost without changing a single bit of the results.
    """
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    return wrapped_summed_area_table(spins == 1, max(limit, 0))


def _resolve_scan_table(
    spins: np.ndarray, limit: int, table: Optional[np.ndarray]
) -> tuple[np.ndarray, int]:
    """Build or validate the scan table for one radius map; returns (table, pad).

    A caller-supplied table must be a :func:`region_scan_table` of the
    configuration with padding at least ``limit`` so that every window of
    every usable radius lies inside it; ``None`` builds a fresh
    ``limit``-padded one.
    """
    if table is None:
        return wrapped_summed_area_table(spins == 1, limit), limit
    n_rows, n_cols = spins.shape
    pad = (table.shape[0] - 1 - n_rows) // 2
    expected = (n_rows + 2 * pad + 1, n_cols + 2 * pad + 1)
    if pad < limit or table.shape != expected:
        raise AnalysisError(
            f"scan table of shape {table.shape} does not cover grid "
            f"{spins.shape} up to radius {limit}"
        )
    return table, pad


def _check_ratio_threshold(ratio_threshold: float) -> None:
    """Reject almost-monochromatic thresholds outside ``[0, 1]``."""
    if not 0.0 <= ratio_threshold <= 1.0:
        raise AnalysisError(
            f"ratio_threshold must lie in [0, 1], got {ratio_threshold}"
        )


def _qualification_cutoffs(ratio_threshold: float, limit: int) -> np.ndarray:
    """Each level's almost-monochromatic decision as one plus-count cutoff.

    Entry ``r`` (``1 <= r <= limit``) is the largest minority count
    ``m <= (N - 1) / 2`` of the ``N = (2r + 1)^2`` window with
    ``float(m) / float(N - m) <= ratio_threshold``, found by bisection; entry
    0 is unused.  That is :func:`minority_ratio_map`'s exact float
    expression, and its correctly rounded value never decreases in ``m``,
    so a plus count ``p`` qualifies exactly when ``p <= c`` or
    ``p >= N - c``: every decision is bitwise the one the per-site
    expression makes.
    """
    threshold = float(ratio_threshold)
    cutoffs = np.zeros(limit + 1, dtype=np.int64)
    for radius in range(1, limit + 1):
        total = neighborhood_size(radius)
        # m = 0 always qualifies (the threshold is non-negative).
        low, high = 0, (total - 1) // 2
        while low < high:
            mid = (low + high + 1) // 2
            if float(mid) / float(total - mid) <= threshold:
                low = mid
            else:
                high = mid - 1
        cutoffs[radius] = low
    return cutoffs


def _radius_scans(
    table: np.ndarray,
    pad: int,
    shape: tuple[int, int],
    limit: int,
    cutoffs: Optional[np.ndarray] = None,
    monochromatic: bool = True,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Both radius maps of one configuration from one dense pass over the levels.

    Level ``r = 1 .. limit`` reads every site's window count once
    (:func:`~repro.core.neighborhood.window_counts`) and feeds both scans:

    * monochromatic windows are monotone in the radius, so the scan keeps
      ``alive &= count in {0, (2r + 1)^2}`` and a site's radius is the number
      of levels it stays alive; the scan ends once no site is alive;
    * the almost-monochromatic property is not monotone, so that scan keeps
      the largest level whose count is within that level's ``cutoffs``
      entry (:func:`_qualification_cutoffs`) of either end, over every
      level.

    Returns ``(mono, almost)``, with ``None`` for a map not asked for
    (``monochromatic=False`` / ``cutoffs=None``).
    """
    mono = np.zeros(shape, dtype=np.int64) if monochromatic else None
    alive = np.ones(shape, dtype=bool) if monochromatic else None
    almost = np.zeros(shape, dtype=np.int64) if cutoffs is not None else None
    for radius in range(1, limit + 1):
        if alive is None and almost is None:
            break
        counts = window_counts(table, pad, shape, radius)
        if alive is not None:
            alive &= (counts == 0) | (counts == neighborhood_size(radius))
            if alive.any():
                mono += alive
            else:
                alive = None
        if almost is not None:
            cut = int(cutoffs[radius])
            high = neighborhood_size(radius) - cut
            np.copyto(almost, radius, where=(counts <= cut) | (counts >= high))
    return mono, almost


def monochromatic_radius_map(
    spins: np.ndarray,
    max_radius: Optional[int] = None,
    *,
    table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-agent radius of the largest monochromatic window centred at the agent.

    Entry ``(i, j)`` is the largest ``rho`` such that every agent within
    l-infinity distance ``rho`` of ``(i, j)`` has the same type as the agent
    at ``(i, j)`` (0 when even the 3x3 window is mixed... i.e. when only the
    agent itself qualifies).  The scan stops at ``max_radius`` or at the
    largest radius that fits on the torus, whichever is smaller.

    The scan is the monochromatic half of :func:`_radius_scans`: one
    summed-area table padded by the limit, then one dense pass per radius
    level over the whole grid while any site is still alive.  Bitwise
    identical to the linear ``window_sums`` scan the equivalence tests hold
    it to.

    ``table`` optionally supplies a precomputed :func:`region_scan_table` so
    several scans of the same configuration share one build.
    """
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    if limit < 1:
        return np.zeros(spins.shape, dtype=np.int64)
    table, pad = _resolve_scan_table(spins, limit, table)
    return _radius_scans(table, pad, spins.shape, limit)[0]


def monochromatic_radius(
    spins: np.ndarray, site: tuple[int, int], max_radius: Optional[int] = None
) -> int:
    """Radius of the monochromatic region of a single agent.

    Window monochromaticity is monotone in the radius, so instead of scanning
    every radius the search doubles the candidate until a window fails (or
    the limit is reached) and then binary-searches the bracket: O(log rho)
    window checks, each dominated by the largest O(rho^2) window — versus the
    O(rho^3) total work of the linear scan this replaces.
    """
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    n_rows, n_cols = spins.shape
    row, col = site[0] % n_rows, site[1] % n_cols
    center_type = spins[row, col]

    def window_is_monochromatic(radius: int) -> bool:
        rows = np.arange(row - radius, row + radius + 1) % n_rows
        cols = np.arange(col - radius, col + radius + 1) % n_cols
        return bool(np.all(spins[np.ix_(rows, cols)] == center_type))

    if limit < 1 or not window_is_monochromatic(1):
        return 0
    largest_good = 1
    first_bad = 2
    while first_bad <= limit and window_is_monochromatic(first_bad):
        largest_good = first_bad
        first_bad *= 2
    if first_bad > limit:
        first_bad = limit + 1
    while first_bad - largest_good > 1:
        mid = (largest_good + first_bad) // 2
        if window_is_monochromatic(mid):
            largest_good = mid
        else:
            first_bad = mid
    return largest_good


def minority_ratio_map(spins: np.ndarray, radius: int) -> np.ndarray:
    """Per-agent ratio of minority to majority counts in the radius-``radius`` window.

    The ratio is 0 for a monochromatic window and approaches 1 for a perfectly
    mixed one; it is exactly the quantity bounded by ``e^{-eps N}`` in the
    paper's definition of an almost monochromatic region.
    """
    spins = require_spin_array(spins)
    plus = window_sums(spins == 1, radius)
    total = neighborhood_size(radius)
    minus = total - plus
    minority = np.minimum(plus, minus).astype(float)
    majority = np.maximum(plus, minus).astype(float)
    return minority / majority


def almost_monochromatic_radius_map(
    spins: np.ndarray,
    ratio_threshold: float,
    max_radius: Optional[int] = None,
    *,
    table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-agent radius of the largest window with minority ratio below threshold.

    Unlike the strictly monochromatic case the property is not monotone in the
    radius (a window can re-qualify after a mixed intermediate shell), so the
    answer for a site is the largest radius level at which its window
    qualifies.  The scan is the almost-monochromatic half of
    :func:`_radius_scans`: one summed-area table padded by the limit, then
    one dense pass per level whose qualification compares the window's plus
    count with that level's cutoff of :func:`minority_ratio_map`'s exact
    float decision (:func:`_qualification_cutoffs`).  Bitwise identical to
    the per-level ``minority_ratio_map`` scan the equivalence tests hold it
    to.

    ``table`` optionally supplies a precomputed :func:`region_scan_table` so
    several scans of the same configuration share one build.
    """
    _check_ratio_threshold(ratio_threshold)
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    if limit < 1:
        return np.zeros(spins.shape, dtype=np.int64)
    table, pad = _resolve_scan_table(spins, limit, table)
    cutoffs = _qualification_cutoffs(ratio_threshold, limit)
    return _radius_scans(table, pad, spins.shape, limit, cutoffs, monochromatic=False)[1]


def paper_ratio_threshold(neighborhood_agents: int, epsilon: float = 0.05) -> float:
    """The paper's almost-monochromatic threshold ``e^{-eps N}``.

    At simulable neighbourhood sizes this is already extremely small (for
    ``N = 49`` and ``eps = 0.05`` it is about ``0.086``), so the default
    ``eps`` keeps the threshold meaningfully away from both 0 and 1.
    """
    if epsilon <= 0:
        raise AnalysisError(f"epsilon must be positive, got {epsilon}")
    return float(math.exp(-epsilon * neighborhood_agents))


def region_sizes_from_radii(radii: np.ndarray) -> np.ndarray:
    """Convert a radius map into region sizes ``(2 rho + 1)^2``."""
    radii = np.asarray(radii)
    return (2 * radii + 1) ** 2


@dataclass(frozen=True)
class RegionStatistics:
    """Summary of region radii/sizes over all agents of a configuration."""

    mean_radius: float
    max_radius: int
    mean_size: float
    max_size: int
    #: Fraction of agents whose region radius is at least the model horizon —
    #: i.e. agents sitting strictly inside a segregated patch at least as
    #: large as their own neighbourhood.
    fraction_at_least_horizon: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for result tables."""
        return {
            "mean_radius": self.mean_radius,
            "max_radius": float(self.max_radius),
            "mean_size": self.mean_size,
            "max_size": float(self.max_size),
            "fraction_at_least_horizon": self.fraction_at_least_horizon,
        }


def summarize_regions(radii: np.ndarray, horizon: int) -> RegionStatistics:
    """Aggregate a radius map into :class:`RegionStatistics`."""
    radii = np.asarray(radii)
    if radii.size == 0:
        raise AnalysisError("cannot summarise an empty radius map")
    sizes = region_sizes_from_radii(radii)
    return RegionStatistics(
        mean_radius=float(radii.mean()),
        max_radius=int(radii.max()),
        mean_size=float(sizes.mean()),
        max_size=int(sizes.max()),
        fraction_at_least_horizon=float(np.mean(radii >= horizon)),
    )


def expected_region_size(
    spins: np.ndarray, max_radius: Optional[int] = None
) -> float:
    """Monte-Carlo analogue of the paper's ``E[M]`` for one configuration.

    The expectation over "an arbitrary agent" is the average of the
    monochromatic region size over all agents of the configuration; averaging
    this quantity over seeds estimates ``E[M]``.
    """
    radii = monochromatic_radius_map(spins, max_radius=max_radius)
    return float(region_sizes_from_radii(radii).mean())


def expected_almost_region_size(
    spins: np.ndarray, ratio_threshold: float, max_radius: Optional[int] = None
) -> float:
    """Monte-Carlo analogue of ``E[M']`` for one configuration."""
    radii = almost_monochromatic_radius_map(
        spins, ratio_threshold, max_radius=max_radius
    )
    return float(region_sizes_from_radii(radii).mean())
