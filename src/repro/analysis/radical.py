"""Radical regions, unhappy regions and the expandability check.

Section III of the paper builds the trigger of the segregation cascade out of
three nested objects, all centred at the same point:

* an *unhappy region* ``N_{eps' w}`` containing at least
  ``tau eps'^2 N - N^{1/2+eps}`` unhappy minority agents (Lemma 4);
* a *radical region* ``N_{(1+eps') w}`` containing fewer than
  ``tau_hat (1 + eps')^2 N`` minority agents;
* the *expandability* property: a sequence of at most ``(w+1)^2`` admissible
  flips inside the radical region that turns the central ``N_{w/2}`` window
  monochromatic (Lemma 5 shows this exists w.h.p. when ``eps' > f(tau)``).

This module detects radical regions in a configuration, counts unhappy
minority agents in the core, and checks expandability constructively by
greedily applying admissible flips inside the region on a scratch copy of the
state — a sufficient (not necessary) certificate, which is exactly what the
lower-bound experiments need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import ModelConfig
from repro.core.grid import TorusGrid
from repro.core.initializer import radical_region_threshold
from repro.core.neighborhood import neighborhood_size, square_mask, window_sums
from repro.core.state import ModelState
from repro.errors import AnalysisError
from repro.types import AgentType
from repro.utils.validation import require_spin_array


def radical_region_radius(config: ModelConfig, epsilon_prime: float) -> int:
    """Radius ``floor((1 + eps') w)`` of a radical region."""
    if epsilon_prime <= 0:
        raise AnalysisError(f"epsilon_prime must be positive, got {epsilon_prime}")
    return int(math.floor((1.0 + epsilon_prime) * config.horizon))


def minority_count_in_window(
    spins: np.ndarray, center: tuple[int, int], radius: int, majority_type: AgentType
) -> int:
    """Number of agents of the minority type in the window around ``center``."""
    spins = require_spin_array(spins)
    n_rows, n_cols = spins.shape
    rows = np.arange(center[0] - radius, center[0] + radius + 1) % n_rows
    cols = np.arange(center[1] - radius, center[1] + radius + 1) % n_cols
    window = spins[np.ix_(rows, cols)]
    return int(np.count_nonzero(window == int(majority_type.opposite)))


def is_radical_region(
    spins: np.ndarray,
    config: ModelConfig,
    center: tuple[int, int],
    epsilon_prime: float,
    majority_type: AgentType = AgentType.PLUS,
) -> bool:
    """Whether the window of radius ``(1+eps')w`` at ``center`` is a radical region."""
    radius = radical_region_radius(config, epsilon_prime)
    threshold = radical_region_threshold(config, epsilon_prime)
    count = minority_count_in_window(spins, center, radius, majority_type)
    return count < threshold


def radical_region_mask(
    spins: np.ndarray,
    config: ModelConfig,
    epsilon_prime: float,
    majority_type: AgentType = AgentType.PLUS,
) -> np.ndarray:
    """Boolean mask of all centres whose window is a radical region.

    Vectorised over the whole grid with a single window-sum, so scanning for
    radical regions costs the same as one happiness evaluation.
    """
    spins = require_spin_array(spins)
    radius = radical_region_radius(config, epsilon_prime)
    threshold = radical_region_threshold(config, epsilon_prime)
    counts = window_sums(spins == int(majority_type.opposite), radius)
    return counts < threshold


def count_radical_regions(
    spins: np.ndarray,
    config: ModelConfig,
    epsilon_prime: float,
    majority_type: AgentType = AgentType.PLUS,
) -> int:
    """Number of grid sites that are centres of radical regions."""
    return int(radical_region_mask(spins, config, epsilon_prime, majority_type).sum())


def unhappy_core_count(
    state: ModelState,
    center: tuple[int, int],
    epsilon_prime: float,
    majority_type: AgentType = AgentType.PLUS,
) -> int:
    """Number of unhappy minority agents in the core ``N_{eps' w}`` (Lemma 4)."""
    config = state.config
    core_radius = max(int(math.floor(epsilon_prime * config.horizon)), 0)
    mask = square_mask(config.n_rows, config.n_cols, center, core_radius)
    unhappy = state.unhappy_mask()
    minority = state.grid.spins == int(majority_type.opposite)
    return int(np.count_nonzero(mask & unhappy & minority))


def unhappy_core_target(config: ModelConfig, epsilon_prime: float) -> int:
    """Lemma 4's target count ``floor(tau eps'^2 N - sqrt(N))`` (with eps = 0)."""
    n = config.neighborhood_agents
    value = config.tau * (epsilon_prime**2) * n - math.sqrt(n)
    return max(int(math.floor(value)), 0)


@dataclass(frozen=True)
class ExpansionResult:
    """Outcome of the constructive expandability check."""

    expanded: bool
    n_flips: int
    flip_budget: int
    center: tuple[int, int]

    @property
    def within_budget(self) -> bool:
        """Whether the successful sequence respected the ``(w+1)^2`` budget."""
        return self.expanded and self.n_flips <= self.flip_budget


def try_expand_radical_region(
    config: ModelConfig,
    spins: np.ndarray,
    center: tuple[int, int],
    epsilon_prime: float,
    majority_type: AgentType = AgentType.PLUS,
    flip_budget: Optional[int] = None,
) -> ExpansionResult:
    """Greedy constructive check of Lemma 5's expandability.

    Works on a scratch copy of the configuration: repeatedly flips minority
    agents inside the radical region that are currently flippable (unhappy
    and made happy by the flip), preferring agents closest to the centre,
    until the central ``N_{w/2}`` window is monochromatic of the majority
    type, the flip budget ``(w+1)^2`` is exhausted, or no admissible flip
    remains.  Success is a certificate that the region is expandable; failure
    of the greedy order is not a proof of non-expandability.
    """
    spins = require_spin_array(spins)
    if flip_budget is None:
        flip_budget = (config.horizon + 1) ** 2
    state = ModelState(config, TorusGrid(spins))
    region_radius = radical_region_radius(config, epsilon_prime)
    core_radius = max(config.horizon // 2, 0)
    n_rows, n_cols = config.shape
    region = square_mask(n_rows, n_cols, center, region_radius)
    core = square_mask(n_rows, n_cols, center, core_radius)
    minority_value = int(majority_type.opposite)

    # Pre-compute a centre-first visiting order of the region's sites.
    region_sites = np.argwhere(region)
    dr = np.abs(region_sites[:, 0] - center[0])
    dr = np.minimum(dr, n_rows - dr)
    dc = np.abs(region_sites[:, 1] - center[1])
    dc = np.minimum(dc, n_cols - dc)
    order = np.argsort(np.maximum(dr, dc), kind="stable")
    region_sites = region_sites[order]

    n_flips = 0
    while n_flips < flip_budget:
        core_spins = state.grid.spins[core]
        if np.all(core_spins == int(majority_type)):
            return ExpansionResult(True, n_flips, flip_budget, center)
        flipped_this_pass = False
        for row, col in region_sites:
            if state.grid.spins[row, col] != minority_value:
                continue
            if not state.is_flippable(int(row), int(col)):
                continue
            state.apply_flip(int(row), int(col))
            n_flips += 1
            flipped_this_pass = True
            break
        if not flipped_this_pass:
            break
    core_spins = state.grid.spins[core]
    expanded = bool(np.all(core_spins == int(majority_type)))
    return ExpansionResult(expanded, n_flips, flip_budget, center)
