"""Geometry of extended Moore neighbourhoods on the torus.

The paper's neighbourhood of radius ``rho`` around an agent ``u`` is the set
of all agents at l-infinity distance at most ``rho`` from ``u`` — a
``(2 rho + 1) x (2 rho + 1)`` square window, wrapped around the torus.  The
helpers in this module translate between radii, window sizes and modular index
arrays, and are shared by the dynamics engine, the analysis code and the
renormalisation substrate.

Every full-grid window count in :mod:`repro.core` and :mod:`repro.analysis`
is four slices of one summed-area table: :func:`wrapped_summed_area_table`
builds it for a grid or an ``(R, n, m)`` stack, and :func:`window_counts`
reads it.
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
    """Summed-area table of a grid or ``(R, n, m)`` stack, torus-padded by ``pad``.

    Each grid is wrapped by ``pad`` on every side and gets a leading zero
    row and column, so the sum of a padded grid over ``[r0, r1) x [c0, c1)``
    is ``T[..., r1, c1] - T[..., r0, c1] - T[..., r1, c0] + T[..., r0, c0]``
    (:func:`window_counts` reads it).  No entry exceeds the padded grid area
    times the input's largest magnitude, so the table is ``int32`` whenever
    that product fits, which halves the memory traffic of every read, and
    ``int64`` otherwise.  The sums are exact integers either way.
    """
    values = np.asarray(arr)
    lead = [(0, 0)] * (values.ndim - 2)
    padded = np.pad(values, lead + [(pad, pad), (pad, pad)], mode="wrap")
    if values.dtype == bool:
        magnitude = 1
    else:
        magnitude = max(int(values.max(initial=0)), -int(values.min(initial=0)))
    rows, cols = padded.shape[-2:]
    dtype = np.int32 if rows * cols * magnitude < 2**31 else np.int64
    table = np.zeros(padded.shape[:-2] + (rows + 1, cols + 1), dtype=dtype)
    body = table[..., 1:, 1:]
    np.cumsum(padded, axis=-1, dtype=dtype, out=body)
    np.cumsum(body, axis=-2, out=body)
    return table


def window_counts(
    table: np.ndarray, pad: int, shape: tuple[int, int], radius: int
) -> np.ndarray:
    """Every site's radius-``radius`` window sum, read off a summed-area table.

    ``table`` is a :func:`wrapped_summed_area_table` padded by ``pad >=
    radius`` of grids of ``shape``.  The window of site ``(i, j)`` spans
    table rows ``i + pad - radius`` to ``i + pad + radius + 1``, and likewise
    for columns, so the counts are four shifted slices of the table.  The
    result has the table's dtype and leading axes.
    """
    n_rows, n_cols = shape
    lo = pad - radius
    hi = pad + radius + 1
    top, bottom = slice(lo, lo + n_rows), slice(hi, hi + n_rows)
    left, right = slice(lo, lo + n_cols), slice(hi, hi + n_cols)
    counts = table[..., bottom, right] - table[..., top, right]
    counts -= table[..., bottom, left]
    counts += table[..., top, left]
    return counts


def window_sums(indicator: np.ndarray, radius: int) -> np.ndarray:
    """Wrapped moving-window sums of a grid or a ``(R, n, m)`` stack.

    ``window_sums(x, w)[..., i, j]`` equals the sum of ``x`` over the
    ``(2w+1) x (2w+1)`` window centred at ``(i, j)`` with toroidal
    wrap-around, grid by grid.  One padded summed-area table serves the
    whole input, which is O(grid size) regardless of the radius, so
    full-grid neighbourhood counts stay cheap even for large horizons.  The
    result is an integer array of the table's dtype.
    """
    arr = np.asarray(indicator)
    if arr.ndim not in (2, 3):
        raise ConfigurationError(
            f"indicator must be a 2-D grid or a (R, n, m) stack, got shape {arr.shape}"
        )
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    shape = arr.shape[-2:]
    require_window_fits(shape, radius)
    return window_counts(wrapped_summed_area_table(arr, radius), radius, shape, radius)


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
