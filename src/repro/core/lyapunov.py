"""Lyapunov (energy) functions for the segregation process.

The paper argues termination by observing that the sum over all agents of the
number of same-type agents in their neighbourhood strictly increases with
every allowed flip and is bounded above.  This module exposes that quantity
(and the equivalent pair-agreement count) as standalone functions that operate
on plain spin arrays, so analysis code can evaluate them on snapshots without
constructing a :class:`~repro.core.state.ModelState`.
"""

from __future__ import annotations

import numpy as np

from repro.core.neighborhood import neighborhood_size, window_sums
from repro.utils.validation import require_spin_array


def same_type_count_field(spins: np.ndarray, horizon: int) -> np.ndarray:
    """Per-agent count of same-type agents (self included) within ``horizon``."""
    spins = require_spin_array(spins)
    plus_counts = window_sums(spins == 1, horizon)
    total = neighborhood_size(horizon)
    return np.where(spins == 1, plus_counts, total - plus_counts)


def lyapunov_energy(spins: np.ndarray, horizon: int) -> int:
    """The paper's Lyapunov function: total same-type neighbourhood count."""
    return int(same_type_count_field(spins, horizon).sum())


def agreement_pairs(spins: np.ndarray, horizon: int) -> int:
    """Number of unordered same-type pairs at l-infinity distance <= horizon.

    ``lyapunov_energy = n_sites + 2 * agreement_pairs`` because every agent
    agrees with itself and every agreeing pair is counted once from each end.
    The tests use this identity as a consistency check.
    """
    spins = require_spin_array(spins)
    energy = lyapunov_energy(spins, horizon)
    return (energy - spins.size) // 2


def max_energy(n_rows: int, n_cols: int, horizon: int) -> int:
    """Upper bound of the Lyapunov function (a fully monochromatic grid)."""
    return n_rows * n_cols * neighborhood_size(horizon)
