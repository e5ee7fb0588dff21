"""Pluggable execution backends for the flip-loop hot path.

The engine's innermost layer — the scalar round control plane, the fused
window update, and the coded-op sampler maintenance — runs behind the
:class:`~repro.core.backends.base.FlipLoopBackend` seam.  Two
implementations ship: ``numpy`` (the always-available reference) and
``cffi`` (the flip loop as compiled C, round loop included).  Both are
pinned bitwise identical; see :mod:`repro.core.backends.registry` for
probing and selection.
"""

from repro.core.backends.base import FlipLoopBackend
from repro.core.backends.cffi_backend import CffiBackend, cffi_available
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.backends.registry import (
    AUTO_PREFERENCE,
    BACKEND_ENV_VAR,
    KNOWN_BACKENDS,
    available_backends,
    create_backend,
    default_backend_name,
    resolve_backend_name,
    select_backend_name,
)

__all__ = [
    "AUTO_PREFERENCE",
    "BACKEND_ENV_VAR",
    "KNOWN_BACKENDS",
    "CffiBackend",
    "FlipLoopBackend",
    "NumpyBackend",
    "available_backends",
    "cffi_available",
    "create_backend",
    "default_backend_name",
    "resolve_backend_name",
    "select_backend_name",
]
