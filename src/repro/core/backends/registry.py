"""Backend registry: capability probing, selection precedence, fallback.

The registry is the single decision point for which
:class:`~repro.core.backends.base.FlipLoopBackend` a run uses:

* :func:`available_backends` probes what this host can actually run:
  ``numpy`` always, ``cffi`` when a C compiler works and the kernel
  library, linked against numpy's ``libnpyrandom.a``, builds and loads
  through stdlib ``ctypes`` (no package beyond numpy).
* :func:`select_backend_name` applies the selection precedence
  **CLI > environment (``REPRO_BACKEND``) > spec > auto** and returns the
  winning *request*.
* :func:`resolve_backend_name` turns a request into a concrete available
  backend: ``auto`` takes ``cffi`` when it loads and otherwise ``numpy``;
  a known-but-unavailable request degrades to ``numpy`` with a single
  warning per process per name — never an exception — while an unknown
  name is a hard :class:`~repro.errors.ConfigurationError` (typo, not
  capability).
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

from repro.core.backends.base import FlipLoopBackend
from repro.core.backends.cffi_backend import CffiBackend, cffi_available
from repro.core.backends.numpy_backend import NumpyBackend
from repro.errors import ConfigurationError

#: Environment variable consulted between the CLI flag and the spec field.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Every name the registry understands, in documentation order.
KNOWN_BACKENDS = ("auto", "numpy", "cffi")

#: ``auto``'s preference order among available backends.
AUTO_PREFERENCE = ("cffi", "numpy")

_BACKEND_CLASSES = {
    "numpy": NumpyBackend,
    "cffi": CffiBackend,
}

_warned_fallbacks: set[str] = set()


def available_backends() -> tuple[str, ...]:
    """Names of the backends this host can run, in registry order."""
    names = ["numpy"]
    if cffi_available():
        names.append("cffi")
    return tuple(names)


def default_backend_name() -> str:
    """The backend ``auto`` resolves to on this host."""
    available = available_backends()
    for name in AUTO_PREFERENCE:
        if name in available:
            return name
    return "numpy"


def select_backend_name(
    requested: Optional[str] = None, spec: Optional[str] = None
) -> str:
    """Apply the selection precedence CLI > env > spec > auto.

    ``requested`` is the strongest channel (a CLI flag or an explicit
    keyword argument), the ``REPRO_BACKEND`` environment variable comes
    next, then the spec's persisted ``backend`` field; empty strings count
    as unset at every level.  The returned name is a *request* — pass it
    through :func:`resolve_backend_name` to land on something runnable.
    """
    for value in (requested, os.environ.get(BACKEND_ENV_VAR), spec):
        if value:
            return value
    return "auto"


def resolve_backend_name(name: Optional[str]) -> str:
    """Concretize a backend request into an available backend's name.

    ``None``/empty/``auto`` take the host's best available backend.  A
    known backend that this host cannot run degrades to ``numpy`` and
    warns once per process per name; an unknown name raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if not name or name == "auto":
        return default_backend_name()
    if name not in _BACKEND_CLASSES:
        raise ConfigurationError(
            f"unknown backend {name!r}; known backends: "
            f"{', '.join(KNOWN_BACKENDS)}"
        )
    if name not in available_backends():
        if name not in _warned_fallbacks:
            _warned_fallbacks.add(name)
            warnings.warn(
                f"backend {name!r} is not available on this host; "
                f"falling back to 'numpy'",
                RuntimeWarning,
                stacklevel=2,
            )
        return "numpy"
    return name


def create_backend(name: Optional[str]) -> FlipLoopBackend:
    """Instantiate the backend for ``name`` (resolving requests first).

    Every call returns a fresh, unattached instance: a backend serves
    exactly one engine, so engines never share capture state.
    """
    return _BACKEND_CLASSES[resolve_backend_name(name)]()
