"""Slow, obviously correct oracles for the measurement kernels.

Each function restates one measurement the library computes with a fast
kernel, in the most direct form: a full-grid pass per radius, one Python
union per lattice edge, one trial at a time.  The property tests and the
measurement benchmarks hold the library to these bit for bit.  They live
here rather than in the package because only tests need them.

:func:`segregation_metrics_oracle` composes them into the whole
:class:`~repro.analysis.segregation.SegregationMetrics` bundle without
touching the library's measurement kernels, so comparing it with
``segregation_metrics_batch`` is not a comparison of a kernel with itself.
Their window counts come from :func:`window_sums_reference`, an ``int64``
summed-area table read by four index gathers per site, never from the
table builder and slice reader of :mod:`repro.core.neighborhood`.

The PCG64 helpers at the end steer numpy's bit generator from outside:
they put a generator one chosen word away, so the C sampler's rare paths
can be driven on purpose.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.regions import _max_usable_radius, paper_ratio_threshold
from repro.analysis.segregation import SegregationMetrics
from repro.core.config import ModelConfig
from repro.core.neighborhood import neighborhood_size, require_window_fits
from repro.errors import AnalysisError, ConfigurationError, PercolationError
from repro.percolation.cluster import RadiusTailEstimate, cluster_radius, label_clusters
from repro.percolation.union_find import UnionFind
from repro.rng import SeedLike, make_rng
from repro.utils.validation import require_spin_array


def window_sums_reference(indicator: np.ndarray, radius: int) -> np.ndarray:
    """Four-gather window sums: the oracle for ``window_sums`` on a grid.

    An ``int64`` summed-area table of the torus-padded grid, read by
    gathering the four corner entries of every site's window through index
    arrays, so it shares neither the table builder nor the slice reader
    of :mod:`repro.core.neighborhood`.
    """
    arr = np.asarray(indicator, dtype=np.int64)
    if arr.ndim != 2:
        raise ConfigurationError(
            f"indicator must be a 2-D array, got shape {arr.shape}"
        )
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    n_rows, n_cols = arr.shape
    require_window_fits(arr.shape, radius)
    if radius == 0:
        return arr.copy()
    padded = np.pad(arr, radius, mode="wrap")
    table = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.int64)
    table[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    side = 2 * radius + 1
    top = np.arange(n_rows)
    left = np.arange(n_cols)
    bottom = top + side
    right = left + side
    return (
        table[np.ix_(bottom, right)]
        - table[np.ix_(top, right)]
        - table[np.ix_(bottom, left)]
        + table[np.ix_(top, left)]
    )


def minority_ratio_map_reference(spins: np.ndarray, radius: int) -> np.ndarray:
    """Per-site minority/majority ratio: the oracle for ``minority_ratio_map``."""
    spins = require_spin_array(spins)
    plus = window_sums_reference(spins == 1, radius)
    total = neighborhood_size(radius)
    minus = total - plus
    minority = np.minimum(plus, minus).astype(float)
    majority = np.maximum(plus, minus).astype(float)
    return minority / majority


def monochromatic_radius_map_reference(
    spins: np.ndarray, max_radius: Optional[int] = None
) -> np.ndarray:
    """Linear per-radius scan: the oracle for ``monochromatic_radius_map``.

    One :func:`window_sums_reference` pass per radius over the whole grid,
    stopping once no site is alive.
    """
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    radii = np.zeros(spins.shape, dtype=np.int64)
    plus_indicator = (spins == 1).astype(np.int64)
    alive = np.ones(spins.shape, dtype=bool)
    for radius in range(1, limit + 1):
        counts = window_sums_reference(plus_indicator, radius)
        total = neighborhood_size(radius)
        mono = (counts == total) | (counts == 0)
        alive &= mono
        if not alive.any():
            break
        radii[alive] = radius
    return radii


def almost_monochromatic_radius_map_reference(
    spins: np.ndarray,
    ratio_threshold: float,
    max_radius: Optional[int] = None,
) -> np.ndarray:
    """Linear per-radius scan: the oracle for ``almost_monochromatic_radius_map``.

    One full :func:`minority_ratio_map_reference` grid pass per radius,
    recording the largest qualifying radius per site.
    """
    if not 0.0 <= ratio_threshold <= 1.0:
        raise AnalysisError(
            f"ratio_threshold must lie in [0, 1], got {ratio_threshold}"
        )
    spins = require_spin_array(spins)
    limit = _max_usable_radius(spins.shape, max_radius)
    radii = np.zeros(spins.shape, dtype=np.int64)
    for radius in range(1, limit + 1):
        ratios = minority_ratio_map_reference(spins, radius)
        qualifies = ratios <= ratio_threshold
        radii[qualifies] = radius
    return radii


def label_clusters_reference(mask: np.ndarray, periodic: bool = False) -> np.ndarray:
    """Scalar union/find labelling: the oracle for ``label_clusters``.

    One Python-level union per open edge and one find per open site.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise PercolationError(f"mask must be 2-D, got shape {mask.shape}")
    n_rows, n_cols = mask.shape
    uf = UnionFind(mask.size)
    flat = mask.ravel()

    def merge(a_rows, a_cols, b_rows, b_cols) -> None:
        a_idx = (a_rows * n_cols + a_cols).ravel()
        b_idx = (b_rows * n_cols + b_cols).ravel()
        both = flat[a_idx] & flat[b_idx]
        for a, b in zip(a_idx[both], b_idx[both]):
            uf.union(int(a), int(b))

    rows = np.arange(n_rows)
    cols = np.arange(n_cols)
    grid_rows, grid_cols = np.meshgrid(rows, cols, indexing="ij")
    # Horizontal edges.
    merge(grid_rows[:, :-1], grid_cols[:, :-1], grid_rows[:, 1:], grid_cols[:, 1:])
    # Vertical edges.
    merge(grid_rows[:-1, :], grid_cols[:-1, :], grid_rows[1:, :], grid_cols[1:, :])
    if periodic:
        merge(grid_rows[:, -1:], grid_cols[:, -1:], grid_rows[:, :1], grid_cols[:, :1])
        merge(grid_rows[-1:, :], grid_cols[-1:, :], grid_rows[:1, :], grid_cols[:1, :])

    labels = np.full(mask.shape, -1, dtype=np.int64)
    next_label = 0
    root_to_label: dict[int, int] = {}
    open_indices = np.flatnonzero(flat)
    for index in open_indices:
        root = uf.find(int(index))
        if root not in root_to_label:
            root_to_label[root] = next_label
            next_label += 1
        labels.ravel()[index] = root_to_label[root]
    return labels


def estimate_radius_tail_reference(
    p_open: float,
    radii: list[int],
    box_radius: int,
    n_trials: int,
    seed: SeedLike = None,
) -> RadiusTailEstimate:
    """Per-trial loop: the oracle for ``estimate_radius_tail``.

    One mask draw, labelling pass and origin ``cluster_radius`` query per
    trial.
    """
    if not 0.0 <= p_open <= 1.0:
        raise PercolationError(f"p_open must lie in [0, 1], got {p_open}")
    if any(k > box_radius for k in radii):
        raise PercolationError("requested radii exceed the simulation box radius")
    rng = make_rng(seed)
    side = 2 * box_radius + 1
    origin = (box_radius, box_radius)
    radii_arr = np.asarray(sorted(radii), dtype=int)
    hits = np.zeros(radii_arr.size, dtype=np.int64)
    for _ in range(n_trials):
        mask = rng.random((side, side)) < p_open
        mask[origin] = True  # condition on the origin being open
        labels = label_clusters(mask)
        radius = cluster_radius(labels, origin)
        hits += radius >= radii_arr
    return RadiusTailEstimate(
        p_open=p_open,
        radii=radii_arr,
        probabilities=hits / max(n_trials, 1),
        n_trials=max(n_trials, 0),
    )


def segregation_metrics_oracle(
    spins: np.ndarray,
    config: ModelConfig,
    max_region_radius: Optional[int] = None,
    ratio_threshold: Optional[float] = None,
) -> SegregationMetrics:
    """The whole metrics bundle from the oracles and the per-field formulas.

    Region radii come from the two linear scans, the largest cluster from
    :func:`label_clusters_reference` on each type's mask, and every scalar
    field from the formula the library used before its measurement kernel:
    ``np.mean`` over the horizon's same-type field, ``np.roll`` interfaces
    and the ``same.sum()`` energy.
    """
    spins = require_spin_array(spins)
    if ratio_threshold is None:
        ratio_threshold = paper_ratio_threshold(config.neighborhood_agents)
    radii = monochromatic_radius_map_reference(spins, max_radius=max_region_radius)
    almost_radii = almost_monochromatic_radius_map_reference(
        spins, ratio_threshold, max_radius=max_region_radius
    )
    plus_counts = window_sums_reference(spins == 1, config.horizon)
    same = np.where(spins == 1, plus_counts, config.neighborhood_agents - plus_counts)
    horizontal = spins != np.roll(spins, -1, axis=1)
    vertical = spins != np.roll(spins, -1, axis=0)
    largest = 0
    for agent_type in (1, -1):
        labels = label_clusters_reference(spins == agent_type, periodic=True)
        if (labels >= 0).any():
            largest = max(largest, int(np.bincount(labels[labels >= 0]).max()))
    n_plus = np.count_nonzero(spins == 1)
    return SegregationMetrics(
        unhappy_fraction=float(np.mean(same < config.happiness_threshold)),
        local_homogeneity=float(same.mean() / (2 * config.horizon + 1) ** 2),
        interface_density=float((horizontal.mean() + vertical.mean()) / 2.0),
        mean_monochromatic_size=float(((2 * radii + 1) ** 2).mean()),
        mean_almost_monochromatic_size=float(((2 * almost_radii + 1) ** 2).mean()),
        max_monochromatic_radius=int(radii.max()),
        largest_cluster_fraction=largest / spins.size,
        dominant_type_fraction=max(n_plus, spins.size - n_plus) / spins.size,
        energy=int(same.sum()),
    )


#: The 128-bit LCG multiplier of numpy's PCG64 bit generator.
_PCG64_MULTIPLIER = 47026247687942121848144207491837523525
_PCG64_MASK = (1 << 128) - 1
_PCG64_MULT_INV = pow(_PCG64_MULTIPLIER, -1, 1 << 128)


def probe_generator_for_word(probe: np.random.Generator, word: int) -> None:
    """Position ``probe`` so that its next 64-bit output is exactly ``word``.

    PCG64's output is the XSL-RR mix of the *post-step* LCG state; a state
    whose high 64 bits are zero mixes to its own low word (rotation 0), so
    stepping the LCG map backwards from that state yields the generator state
    that will emit ``word`` next.
    """
    state = probe.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = ((word - inc) * _PCG64_MULT_INV) & _PCG64_MASK
    state["has_uint32"] = 0
    state["uinteger"] = 0
    probe.bit_generator.state = state


def probe_draw(probe: np.random.Generator, word: int) -> tuple[float, int]:
    """Feed ``word`` to ``standard_exponential``; return (value, words used)."""
    probe_generator_for_word(probe, word)
    state = probe.bit_generator.state["state"]
    before, inc = state["state"], state["inc"]
    value = probe.standard_exponential()
    after = probe.bit_generator.state["state"]["state"]
    consumed, rolling = 0, before
    while rolling != after:
        rolling = (rolling * _PCG64_MULTIPLIER + inc) & _PCG64_MASK
        consumed += 1
        if consumed > 4096:  # pragma: no cover - defensive
            raise RuntimeError("probe draw did not converge")
    return value, consumed
