"""Input validation helpers.

These helpers centralise the argument checks shared by configuration objects,
analysis routines and percolation substrates, and raise
:class:`repro.errors.ConfigurationError` (a ``ValueError`` subclass) with a
message that names the offending parameter.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError


def require_positive_int(value: Any, name: str) -> int:
    """Return ``value`` as ``int`` after checking it is a positive integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return int(value)


def require_positive(value: Any, name: str) -> float:
    """Return ``value`` as ``float`` after checking it is strictly positive."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")
    return value


def require_probability(value: Any, name: str) -> float:
    """Return ``value`` as ``float`` after checking it lies in ``[0, 1]``."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return value


def require_in_range(
    value: Any, name: str, low: float, high: float, inclusive: bool = True
) -> float:
    """Return ``value`` after checking ``low <= value <= high`` (or strict)."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from exc
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not np.isfinite(value) or not ok:
        raise ConfigurationError(f"{name} must lie in {bounds}, got {value}")
    return value


def require_odd(value: Any, name: str) -> int:
    """Return ``value`` as ``int`` after checking it is a positive odd integer."""
    value = require_positive_int(value, name)
    if value % 2 == 0:
        raise ConfigurationError(f"{name} must be odd, got {value}")
    return value


def require_spin_array(array: Any, name: str = "configuration") -> np.ndarray:
    """Validate a two-dimensional ±1 spin array and return it as ``int8``.

    The analysis and dynamics code assumes configurations are square or
    rectangular 2-D arrays whose entries are exactly ``+1`` or ``-1``.
    Membership is one vectorized pass; the sorted distinct values are only
    computed to name the offenders in the error message.
    """
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ConfigurationError(
            f"{name} must be a 2-D array, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise ConfigurationError(f"{name} must be non-empty")
    if not ((arr == 1) | (arr == -1)).all():
        values = np.unique(arr)
        raise ConfigurationError(
            f"{name} entries must all be +1 or -1, found values {values[:8]}"
        )
    return arr.astype(np.int8, copy=False)
