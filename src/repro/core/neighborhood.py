"""Geometry of extended Moore neighbourhoods on the torus.

The paper's neighbourhood of radius ``rho`` around an agent ``u`` is the set
of all agents at l-infinity distance at most ``rho`` from ``u`` — a
``(2 rho + 1) x (2 rho + 1)`` square window, wrapped around the torus.  The
helpers in this module translate between radii, window sizes and modular index
arrays, and are shared by the dynamics engine, the analysis code and the
renormalisation substrate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def neighborhood_size(radius: int) -> int:
    """Number of agents in a neighbourhood of integer radius ``radius``.

    ``N = (2 * radius + 1) ** 2`` — the paper's ``N`` when ``radius`` is the
    horizon ``w``.
    """
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    return (2 * radius + 1) ** 2


def radius_for_size(size: int) -> int:
    """Inverse of :func:`neighborhood_size`; raises if ``size`` is not valid."""
    if size <= 0:
        raise ConfigurationError(f"size must be positive, got {size}")
    side = int(round(np.sqrt(size)))
    if side * side != size or side % 2 == 0:
        raise ConfigurationError(
            f"{size} is not the size of a square odd-sided neighbourhood"
        )
    return (side - 1) // 2


def neighborhood_offsets(radius: int, include_center: bool = True) -> np.ndarray:
    """Return the ``(dr, dc)`` offsets of a radius-``radius`` neighbourhood.

    The result has shape ``(K, 2)`` where ``K`` is ``(2*radius+1)**2`` when
    ``include_center`` is true and one less otherwise.
    """
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    spread = np.arange(-radius, radius + 1)
    rows, cols = np.meshgrid(spread, spread, indexing="ij")
    offsets = np.stack([rows.ravel(), cols.ravel()], axis=1)
    if not include_center:
        keep = ~np.all(offsets == 0, axis=1)
        offsets = offsets[keep]
    return offsets


def wrapped_window_indices(
    n_rows: int, n_cols: int, row: int, col: int, radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """Modular row/column index arrays for the window centred at ``(row, col)``.

    The returned arrays are suitable for ``np.ix_`` indexing:
    ``array[np.ix_(rows, cols)]`` extracts (a copy of) the wrapped window.
    """
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    rows = np.arange(row - radius, row + radius + 1) % n_rows
    cols = np.arange(col - radius, col + radius + 1) % n_cols
    return rows, cols


def torus_linf_distance(
    a: tuple[int, int], b: tuple[int, int], n_rows: int, n_cols: int
) -> int:
    """l-infinity distance between two sites on the torus."""
    dr = abs(a[0] - b[0]) % n_rows
    dc = abs(a[1] - b[1]) % n_cols
    dr = min(dr, n_rows - dr)
    dc = min(dc, n_cols - dc)
    return int(max(dr, dc))


def torus_l1_distance(
    a: tuple[int, int], b: tuple[int, int], n_rows: int, n_cols: int
) -> int:
    """l-1 (Manhattan) distance between two sites on the torus."""
    dr = abs(a[0] - b[0]) % n_rows
    dc = abs(a[1] - b[1]) % n_cols
    dr = min(dr, n_rows - dr)
    dc = min(dc, n_cols - dc)
    return int(dr + dc)


def torus_euclidean_distance(
    a: tuple[int, int], b: tuple[int, int], n_rows: int, n_cols: int
) -> float:
    """Euclidean distance between two sites on the torus (used by firewalls)."""
    dr = abs(a[0] - b[0]) % n_rows
    dc = abs(a[1] - b[1]) % n_cols
    dr = min(dr, n_rows - dr)
    dc = min(dc, n_cols - dc)
    return float(np.hypot(dr, dc))


def require_window_fits(shape: tuple[int, int], radius: int) -> None:
    """Reject a radius whose ``(2 radius + 1)``-sided window exceeds the grid."""
    if 2 * radius + 1 > min(shape):
        raise ConfigurationError(
            f"window side {2 * radius + 1} exceeds grid side {min(shape)}"
        )


def wrapped_summed_area_table(arr: np.ndarray, pad: int) -> np.ndarray:
    """Summed-area table of ``arr`` torus-padded by ``pad`` on every side.

    The table has a leading zero row/column, so the sum of the padded array
    over ``[r0, r1) x [c0, c1)`` is ``T[r1, c1] - T[r0, c1] - T[r1, c0] +
    T[r0, c0]``.  Shared by :func:`window_sums` (one fixed radius for the
    whole grid); the region scans of :mod:`repro.analysis.regions` read
    many radii off one table of the same layout.
    """
    padded = np.pad(np.asarray(arr, dtype=np.int64), pad, mode="wrap")
    table = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.int64)
    table[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    return table


def wrapped_summed_area_table_batch(arrs: np.ndarray, pad: int) -> np.ndarray:
    """Summed-area tables of a ``(R, n, m)`` stack, one cumsum pass for all.

    Batched :func:`wrapped_summed_area_table`: slice ``r`` of the result is
    bitwise identical to ``wrapped_summed_area_table(arrs[r], pad)`` (exact
    integer sums), but the padding and the two cumulative sums run once over
    the whole stack instead of once per replica, which is how
    :func:`window_sums_batch` shares one table build across equal-shape
    replicas.
    """
    stack = np.asarray(arrs, dtype=np.int64)
    if stack.ndim != 3:
        raise ConfigurationError(
            f"arrs must be a (R, n, m) stack, got shape {stack.shape}"
        )
    padded = np.pad(stack, ((0, 0), (pad, pad), (pad, pad)), mode="wrap")
    table = np.zeros(
        (padded.shape[0], padded.shape[1] + 1, padded.shape[2] + 1), dtype=np.int64
    )
    table[:, 1:, 1:] = padded.cumsum(axis=1).cumsum(axis=2)
    return table


def window_sums_batch(indicators: np.ndarray, radius: int) -> np.ndarray:
    """Batched :func:`window_sums` over a ``(R, n, m)`` indicator stack.

    Slice ``r`` equals ``window_sums(indicators[r], radius)`` bit for bit;
    the summed-area tables of all replicas are built in one pass.
    """
    stack = np.asarray(indicators, dtype=np.int64)
    if stack.ndim != 3:
        raise ConfigurationError(
            f"indicators must be a (R, n, m) stack, got shape {stack.shape}"
        )
    n_rows, n_cols = stack.shape[1], stack.shape[2]
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    require_window_fits((n_rows, n_cols), radius)
    if radius == 0:
        return stack.copy()
    table = wrapped_summed_area_table_batch(stack, radius)
    side = 2 * radius + 1
    top = np.arange(n_rows)
    left = np.arange(n_cols)
    bottom = top + side
    right = left + side
    return (
        table[:, bottom[:, None], right[None, :]]
        - table[:, top[:, None], right[None, :]]
        - table[:, bottom[:, None], left[None, :]]
        + table[:, top[:, None], left[None, :]]
    )


def window_sums(indicator: np.ndarray, radius: int) -> np.ndarray:
    """Wrapped moving-window sums of a 2-D array over square windows.

    ``window_sums(x, w)[i, j]`` equals the sum of ``x`` over the
    ``(2w+1) x (2w+1)`` window centred at ``(i, j)`` with toroidal wrap-around.
    Implemented with a padded summed-area table, which is O(grid size)
    regardless of the radius, so full-grid neighbourhood counts stay cheap even
    for large horizons.
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
    table = wrapped_summed_area_table(arr, radius)
    side = 2 * radius + 1
    top = np.arange(n_rows)
    left = np.arange(n_cols)
    bottom = top + side
    right = left + side
    sums = (
        table[np.ix_(bottom, right)]
        - table[np.ix_(top, right)]
        - table[np.ix_(bottom, left)]
        + table[np.ix_(top, left)]
    )
    return sums


def annulus_mask(
    n_rows: int,
    n_cols: int,
    center: tuple[int, int],
    inner_radius: float,
    outer_radius: float,
) -> np.ndarray:
    """Boolean mask of sites with Euclidean torus distance in ``[inner, outer]``.

    Used to carve the annular firewalls of Lemma 9 out of a configuration.
    """
    if inner_radius < 0 or outer_radius < inner_radius:
        raise ConfigurationError(
            "annulus radii must satisfy 0 <= inner <= outer, got "
            f"inner={inner_radius}, outer={outer_radius}"
        )
    rows = np.arange(n_rows)
    cols = np.arange(n_cols)
    dr = np.abs(rows - center[0])
    dr = np.minimum(dr, n_rows - dr)
    dc = np.abs(cols - center[1])
    dc = np.minimum(dc, n_cols - dc)
    dist = np.hypot(dr[:, None], dc[None, :])
    return (dist >= inner_radius) & (dist <= outer_radius)


def disc_mask(
    n_rows: int, n_cols: int, center: tuple[int, int], radius: float
) -> np.ndarray:
    """Boolean mask of sites within Euclidean torus distance ``radius``."""
    return annulus_mask(n_rows, n_cols, center, 0.0, radius)


def square_mask(
    n_rows: int, n_cols: int, center: tuple[int, int], radius: int
) -> np.ndarray:
    """Boolean mask of the l-infinity ball (square window) around ``center``."""
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    rows = np.arange(n_rows)
    cols = np.arange(n_cols)
    dr = np.abs(rows - center[0])
    dr = np.minimum(dr, n_rows - dr)
    dc = np.abs(cols - center[1])
    dc = np.minimum(dc, n_cols - dc)
    return (dr[:, None] <= radius) & (dc[None, :] <= radius)
