"""The torus grid substrate.

:class:`TorusGrid` owns the ±1 spin array representing agent types and exposes
wrap-around window access, whole-grid neighbourhood counts and simple editing
operations.  It is deliberately dumb about the model: happiness, thresholds and
dynamics live in :mod:`repro.core.state` and :mod:`repro.core.dynamics`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.neighborhood import (
    square_mask,
    window_sums,
    wrapped_window_indices,
)
from repro.errors import ConfigurationError
from repro.types import AgentType
from repro.utils.validation import require_spin_array


class TorusGrid:
    """A two-dimensional grid of ±1 agents with toroidal boundary conditions."""

    def __init__(self, spins: np.ndarray) -> None:
        self._spins = require_spin_array(spins).copy()

    # ----------------------------------------------------------- constructors

    @classmethod
    def filled(cls, n_rows: int, n_cols: int, agent_type: AgentType) -> "TorusGrid":
        """A grid where every agent has the same type."""
        if n_rows <= 0 or n_cols <= 0:
            raise ConfigurationError(
                f"grid dimensions must be positive, got {n_rows}x{n_cols}"
            )
        spins = np.full((n_rows, n_cols), int(agent_type), dtype=np.int8)
        return cls(spins)

    @classmethod
    def from_random(
        cls, n_rows: int, n_cols: int, density: float, rng: np.random.Generator
    ) -> "TorusGrid":
        """Bernoulli(``density``) i.i.d. types: ``+1`` with probability ``density``."""
        if not 0.0 <= density <= 1.0:
            raise ConfigurationError(f"density must lie in [0, 1], got {density}")
        draws = rng.random((n_rows, n_cols))
        # Built as int8 directly: 1 where the draw falls below the density.
        spins = (draws < density).view(np.int8) * 2 - 1
        return cls(spins)

    # ---------------------------------------------------------------- basics

    @property
    def spins(self) -> np.ndarray:
        """The underlying ±1 array (mutable; treat as owned by the grid)."""
        return self._spins

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape ``(n_rows, n_cols)``."""
        return self._spins.shape

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._spins.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self._spins.shape[1]

    @property
    def n_sites(self) -> int:
        """Total number of agents."""
        return self._spins.size

    def copy(self) -> "TorusGrid":
        """Deep copy of the grid."""
        return TorusGrid(self._spins)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusGrid):
            return NotImplemented
        return bool(np.array_equal(self._spins, other._spins))

    def __hash__(self) -> int:  # grids are mutable; keep them unhashable
        raise TypeError("TorusGrid is mutable and therefore unhashable")

    # -------------------------------------------------------------- accessors

    def get(self, row: int, col: int) -> int:
        """Type (+1 or -1) of the agent at ``(row, col)`` (wrapped)."""
        return int(self._spins[row % self.n_rows, col % self.n_cols])

    def set(self, row: int, col: int, value: int) -> None:
        """Set the type of the agent at ``(row, col)`` (wrapped)."""
        if value not in (-1, 1):
            raise ConfigurationError(f"agent type must be +1 or -1, got {value}")
        self._spins[row % self.n_rows, col % self.n_cols] = value

    def flip(self, row: int, col: int) -> int:
        """Flip the agent at ``(row, col)``; returns the new type."""
        row %= self.n_rows
        col %= self.n_cols
        new_value = -int(self._spins[row, col])
        self._spins[row, col] = new_value
        return new_value

    def window(self, row: int, col: int, radius: int) -> np.ndarray:
        """Copy of the wrapped ``(2r+1) x (2r+1)`` window centred at ``(row, col)``."""
        rows, cols = wrapped_window_indices(
            self.n_rows, self.n_cols, row % self.n_rows, col % self.n_cols, radius
        )
        return self._spins[np.ix_(rows, cols)].copy()

    def set_window(self, row: int, col: int, values: np.ndarray) -> None:
        """Overwrite the wrapped window centred at ``(row, col)`` with ``values``."""
        values = require_spin_array(values, "window values")
        side = values.shape[0]
        if values.shape[0] != values.shape[1] or side % 2 == 0:
            raise ConfigurationError(
                f"window values must be a square odd-sided array, got {values.shape}"
            )
        radius = (side - 1) // 2
        rows, cols = wrapped_window_indices(
            self.n_rows, self.n_cols, row % self.n_rows, col % self.n_cols, radius
        )
        self._spins[np.ix_(rows, cols)] = values

    def set_square(
        self, center: tuple[int, int], radius: int, agent_type: AgentType
    ) -> None:
        """Set every agent in the l-infinity ball around ``center`` to one type."""
        mask = square_mask(self.n_rows, self.n_cols, center, radius)
        self._spins[mask] = int(agent_type)

    def set_mask(self, mask: np.ndarray, agent_type: AgentType) -> None:
        """Set every agent selected by a boolean ``mask`` to one type."""
        if mask.shape != self.shape:
            raise ConfigurationError(
                f"mask shape {mask.shape} does not match grid shape {self.shape}"
            )
        self._spins[mask] = int(agent_type)

    # ------------------------------------------------------------------ counts

    def count(self, agent_type: AgentType) -> int:
        """Total number of agents of ``agent_type`` on the grid."""
        return int(np.count_nonzero(self._spins == int(agent_type)))

    def magnetization(self) -> float:
        """Mean spin, i.e. ``(#plus - #minus) / n_sites``."""
        return float(self._spins.mean())

    def plus_fraction(self) -> float:
        """Fraction of ``+1`` agents."""
        return self.count(AgentType.PLUS) / self.n_sites

    def plus_neighborhood_counts(self, radius: int) -> np.ndarray:
        """Number of ``+1`` agents in every agent's radius-``radius`` neighbourhood.

        This is the whole-grid counterpart of the incremental bookkeeping done
        by :class:`repro.core.state.ModelState` and is used to (re)initialise
        it and to cross-check the incremental updates in tests.
        """
        return window_sums(self._spins == 1, radius)

    def same_type_neighborhood_counts(self, radius: int) -> np.ndarray:
        """Number of same-type agents (including self) in every neighbourhood."""
        plus_counts = self.plus_neighborhood_counts(radius)
        total = (2 * radius + 1) ** 2
        return np.where(self._spins == 1, plus_counts, total - plus_counts)

    # ------------------------------------------------------------------ misc

    def sites(self) -> Iterable[tuple[int, int]]:
        """Iterate over all ``(row, col)`` coordinates in row-major order."""
        for row in range(self.n_rows):
            for col in range(self.n_cols):
                yield (row, col)

    def flat_index(self, row: int, col: int) -> int:
        """Row-major flat index of ``(row, col)`` (wrapped)."""
        return (row % self.n_rows) * self.n_cols + (col % self.n_cols)

    def site_of(self, flat_index: int) -> tuple[int, int]:
        """Inverse of :meth:`flat_index`."""
        if not 0 <= flat_index < self.n_sites:
            raise IndexError(f"flat index {flat_index} out of range")
        return divmod(flat_index, self.n_cols)
