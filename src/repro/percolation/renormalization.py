"""Block renormalisation of grid configurations.

Several arguments in the paper renormalise the ``n x n`` grid into square
blocks (w-blocks of side ``w + 1`` built from neighbourhoods of radius
``w/2``, 2w^3- and 6w^3-blocks for the chemical firewall) and then reason
about the block lattice as a new site process.  This module provides the
generic machinery: partitioning a grid into blocks and aggregating
per-block statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BlockGrid:
    """A partition of a grid of shape ``grid_shape`` into square blocks."""

    grid_shape: tuple[int, int]
    block_side: int

    def __post_init__(self) -> None:
        n_rows, n_cols = self.grid_shape
        if self.block_side <= 0:
            raise ConfigurationError(
                f"block_side must be positive, got {self.block_side}"
            )
        if n_rows % self.block_side or n_cols % self.block_side:
            raise ConfigurationError(
                f"grid shape {self.grid_shape} is not divisible by block side "
                f"{self.block_side}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the block lattice."""
        return (
            self.grid_shape[0] // self.block_side,
            self.grid_shape[1] // self.block_side,
        )

    @property
    def n_blocks(self) -> int:
        """Total number of blocks."""
        rows, cols = self.shape
        return rows * cols

    def block_of_site(self, row: int, col: int) -> tuple[int, int]:
        """Block coordinates of the block containing the grid site."""
        n_rows, n_cols = self.grid_shape
        return ((row % n_rows) // self.block_side, (col % n_cols) // self.block_side)

    def site_slice(self, block_row: int, block_col: int) -> tuple[slice, slice]:
        """Slices selecting the grid sites of one block."""
        rows, cols = self.shape
        if not (0 <= block_row < rows and 0 <= block_col < cols):
            raise ConfigurationError(
                f"block ({block_row}, {block_col}) outside block lattice {self.shape}"
            )
        r0 = block_row * self.block_side
        c0 = block_col * self.block_side
        return (slice(r0, r0 + self.block_side), slice(c0, c0 + self.block_side))

    def block_view(self, array: np.ndarray) -> np.ndarray:
        """Reshape ``array`` to ``(block_rows, block_cols, side, side)`` (a view)."""
        arr = np.asarray(array)
        if arr.shape != self.grid_shape:
            raise ConfigurationError(
                f"array shape {arr.shape} does not match grid shape {self.grid_shape}"
            )
        rows, cols = self.shape
        side = self.block_side
        return arr.reshape(rows, side, cols, side).swapaxes(1, 2)

    def block_sums(self, array: np.ndarray) -> np.ndarray:
        """Sum of ``array`` over each block."""
        return self.block_view(array).sum(axis=(2, 3))

    def block_means(self, array: np.ndarray) -> np.ndarray:
        """Mean of ``array`` over each block."""
        return self.block_view(array).mean(axis=(2, 3))

    def block_all(self, mask: np.ndarray) -> np.ndarray:
        """Per-block AND of a boolean mask (e.g. "block is monochromatic +1")."""
        return self.block_view(np.asarray(mask, dtype=bool)).all(axis=(2, 3))

    def block_any(self, mask: np.ndarray) -> np.ndarray:
        """Per-block OR of a boolean mask."""
        return self.block_view(np.asarray(mask, dtype=bool)).any(axis=(2, 3))

    def expand(self, block_values: np.ndarray) -> np.ndarray:
        """Broadcast per-block values back to full grid resolution."""
        values = np.asarray(block_values)
        if values.shape != self.shape:
            raise ConfigurationError(
                f"block_values shape {values.shape} does not match block lattice {self.shape}"
            )
        return np.repeat(np.repeat(values, self.block_side, axis=0), self.block_side, axis=1)


def divisible_block_side(grid_side: int, target_side: int) -> int:
    """Largest block side ``<= target_side`` dividing ``grid_side`` (at least 1).

    The paper's block sides (``w + 1``, ``2 w^3``, ``6 w^3``) rarely divide a
    convenient grid side exactly; experiments snap to the nearest divisor so
    the renormalised lattice tiles the torus.
    """
    if grid_side <= 0 or target_side <= 0:
        raise ConfigurationError("grid_side and target_side must be positive")
    best = 1
    for candidate in range(1, min(grid_side, target_side) + 1):
        if grid_side % candidate == 0:
            best = candidate
    return best
