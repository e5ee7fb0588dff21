"""Good/bad block classification (Section IV.B).

The almost-monochromatic argument renormalises the grid into m-blocks and
calls a block *good* when every intersection of a w-sized window with the
block has a minority excess below ``N^{1/2 + eps}`` — i.e. the block looks
locally balanced at every scale the dynamics cares about.  Good blocks occur
with probability exponentially close to one (Lemma 11), so the bad blocks
form a sub-critical site-percolation process whose clusters are small
(Lemma 14), while the good blocks form a super-critical process that carries
the chemical firewall (Lemma 13).

The finite-size implementation classifies a block as good when the maximum,
over all horizon-sized windows centred inside the block, of the signed excess
``(# minority) - (window size) / 2`` stays below a threshold of the form
``c * N^{1/2 + eps}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import ModelConfig
from repro.core.neighborhood import neighborhood_size, window_sums
from repro.errors import AnalysisError
from repro.percolation.cluster import cluster_radius, cluster_sizes, label_clusters
from repro.percolation.renormalization import BlockGrid, divisible_block_side
from repro.types import AgentType
from repro.utils.validation import require_spin_array


def good_block_threshold(
    config: ModelConfig, epsilon: float = 0.25, constant: float = 1.0
) -> float:
    """The imbalance threshold ``c * N^{1/2 + eps}`` of the good-block definition."""
    if epsilon < 0 or epsilon >= 0.5:
        raise AnalysisError(f"epsilon must lie in [0, 1/2), got {epsilon}")
    if constant <= 0:
        raise AnalysisError(f"constant must be positive, got {constant}")
    return constant * config.neighborhood_agents ** (0.5 + epsilon)


@dataclass(frozen=True)
class BlockClassification:
    """Good/bad classification of a renormalised configuration."""

    block_grid: BlockGrid
    good_blocks: np.ndarray
    threshold: float
    minority_type: AgentType

    @property
    def n_blocks(self) -> int:
        """Total number of blocks."""
        return self.good_blocks.size

    @property
    def n_bad(self) -> int:
        """Number of bad blocks."""
        return int(np.count_nonzero(~self.good_blocks))

    @property
    def bad_fraction(self) -> float:
        """Fraction of bad blocks (Lemma 12 says this vanishes quickly)."""
        return self.n_bad / self.n_blocks if self.n_blocks else 0.0

    def bad_to_good_ratio(self) -> float:
        """Ratio ``N_B / N_G`` appearing in event E of Lemma 17."""
        n_good = self.n_blocks - self.n_bad
        if n_good == 0:
            return float("inf")
        return self.n_bad / n_good

    def largest_bad_cluster_radius(self) -> int:
        """Largest l1 radius among clusters of bad blocks (Lemma 14's quantity)."""
        bad = ~self.good_blocks
        if not bad.any():
            return 0
        labels = label_clusters(bad)
        sizes = cluster_sizes(labels)
        if sizes.size == 0:
            return 0
        best = 0
        for site in np.argwhere(bad):
            radius = cluster_radius(labels, (int(site[0]), int(site[1])))
            best = max(best, radius)
        return best


def classify_blocks(
    spins: np.ndarray,
    config: ModelConfig,
    block_side: Optional[int] = None,
    epsilon: float = 0.25,
    constant: float = 1.0,
    minority_type: AgentType = AgentType.MINUS,
) -> BlockClassification:
    """Classify every block of the configuration as good or bad.

    ``block_side`` defaults to the largest divisor of the grid side not
    exceeding ``2 * (w + 1)`` — the paper's w-block scale — so that blocks
    tile the torus exactly.  A block is *good* when the maximum signed
    minority excess over all horizon windows centred in the block is below
    :func:`good_block_threshold`.
    """
    spins = require_spin_array(spins)
    if spins.shape != config.shape:
        raise AnalysisError(
            f"configuration shape {spins.shape} does not match config {config.shape}"
        )
    if block_side is None:
        block_side = divisible_block_side(min(config.shape), 2 * (config.horizon + 1))
    block_grid = BlockGrid(config.shape, block_side)
    threshold = good_block_threshold(config, epsilon=epsilon, constant=constant)

    window_counts = window_sums(spins == int(minority_type), config.horizon)
    excess = window_counts - neighborhood_size(config.horizon) / 2.0
    # A block is bad when any horizon window centred inside it is too unbalanced.
    worst_per_block = block_grid.block_view(excess).max(axis=(2, 3))
    good_blocks = worst_per_block < threshold
    return BlockClassification(
        block_grid=block_grid,
        good_blocks=good_blocks,
        threshold=threshold,
        minority_type=minority_type,
    )


def good_block_probability(
    config: ModelConfig,
    block_side: Optional[int] = None,
    epsilon: float = 0.25,
    constant: float = 1.0,
    n_trials: int = 200,
    seed: Optional[int] = None,
) -> float:
    """Monte-Carlo estimate of the probability that a single block is good.

    Lemma 11 lower-bounds this by ``1 - exp(-c N^{2 eps} + o(N^{2 eps}))``;
    the benchmark compares the estimate against the super-critical threshold
    needed by the chemical-firewall construction.
    """
    from repro.core.initializer import random_configuration  # avoid import cycle

    if n_trials <= 0:
        raise AnalysisError(f"n_trials must be positive, got {n_trials}")
    rng = np.random.default_rng(seed)
    good = 0
    for _ in range(n_trials):
        grid = random_configuration(config, rng)
        classification = classify_blocks(
            grid.spins, config, block_side=block_side, epsilon=epsilon, constant=constant
        )
        # Look at the central block only, so trials are (nearly) independent
        # draws of a single-block event.
        center = (
            classification.block_grid.shape[0] // 2,
            classification.block_grid.shape[1] // 2,
        )
        if classification.good_blocks[center]:
            good += 1
    return good / n_trials
