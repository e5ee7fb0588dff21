"""The paper's intolerance thresholds and auxiliary rescaled intolerances.

This module evaluates:

* ``tau1 ≈ 0.433`` — the solution of Eq. (1),
  ``(3/4)[1 - H(4 tau/3)] - [1 - H(tau)] = 0``, separating the
  monochromatic regime (Theorem 1) from the almost-monochromatic regime
  (Theorem 2).
* ``tau2 = 11/32 = 0.34375 ≈ 0.344`` — the relevant root of Eq. (3),
  ``1024 tau^2 - 384 tau + 11 = 0``, the lower end of the almost-monochromatic
  regime.
* ``f(tau)`` — Eq. (10), the infimum of the radical-region expansion factor
  ``eps'`` needed to trigger a cascade (Figure 6).
* the rescaled intolerances ``tau'``, ``tau_hat`` and ``tau_bar`` used in the
  lemmas.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.errors import ConfigurationError
from repro.theory.entropy import binary_entropy


def tau1_equation(tau: float) -> float:
    """Left-hand side of Eq. (1); ``tau1`` is its root in ``(3/8, 1/2)``."""
    if not 0.0 < tau < 0.75:
        raise ConfigurationError(f"tau must lie in (0, 0.75) for Eq. (1), got {tau}")
    return 0.75 * (1.0 - binary_entropy(4.0 * tau / 3.0)) - (1.0 - binary_entropy(tau))


@functools.lru_cache(maxsize=1)
def tau1() -> float:
    """The threshold ``tau1 ≈ 0.433`` of Theorem 1 (root of Eq. 1).

    Found by bisection on ``[0.40, 0.499]`` to an interval of width
    ``1e-12``: Eq. (1) is negative at the left end and positive at the right.
    """
    # Eq. (1) has the trivial root tau = 3/4 H-related degeneracies outside
    # the interval of interest; the paper's tau1 is the root just below 1/2.
    low, high = 0.40, 0.499
    while high - low > 1e-12:
        mid = 0.5 * (low + high)
        if tau1_equation(mid) < 0.0:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def tau2_equation(tau: float) -> float:
    """Left-hand side of Eq. (3); ``tau2`` is its larger root."""
    return 1024.0 * tau * tau - 384.0 * tau + 11.0


@functools.lru_cache(maxsize=1)
def tau2() -> float:
    """The threshold ``tau2 = 11/32 = 0.34375`` of Theorem 2 (root of Eq. 3).

    The quadratic ``1024 x^2 - 384 x + 11`` factors over the rationals; its
    roots are ``1/32`` and ``11/32`` and the paper's ``tau2 ≈ 0.344`` is the
    larger one.
    """
    roots = np.roots([1024.0, -384.0, 11.0])
    return float(max(roots.real))


def trigger_epsilon(tau: float) -> float:
    """Eq. (10): the infimum ``f(tau)`` of the expansion factor ``eps'``.

    Defined for ``tau`` strictly between ``tau2`` and ``1/2``; approaches 0 as
    ``tau -> 1/2`` and grows as agents become more tolerant.  For
    ``tau > 1/2`` the symmetric value ``f(1 - tau)`` applies (Section IV.C).
    """
    if not 0.0 < tau < 1.0:
        raise ConfigurationError(f"tau must lie in (0, 1), got {tau}")
    if tau > 0.5:
        tau = 1.0 - tau
    if tau == 0.5:
        return 0.0
    delta = tau - 0.5
    radicand = 9.0 * delta * delta - 7.0 * delta * (3.0 * tau + 0.5)
    if radicand < 0:
        raise ConfigurationError(
            f"f(tau) is not real for tau={tau}; it is defined on (tau2, 1/2)"
        )
    return float((3.0 * delta + math.sqrt(radicand)) / (2.0 * (3.0 * tau + 0.5)))


def trigger_epsilon_curve(taus: np.ndarray) -> np.ndarray:
    """Vectorised ``f(tau)`` over an array of intolerances (Figure 6)."""
    return np.array([trigger_epsilon(float(t)) for t in np.asarray(taus, dtype=float)])


def tau_prime(tau: float, neighborhood_agents: int) -> float:
    """The paper's ``tau' = (tau N - 2) / (N - 1)`` (Lemma 19).

    Accounts for the strict happiness inequality and the agent at the centre
    of the neighbourhood.  Clamped below at 0 for tiny neighbourhoods.
    """
    if neighborhood_agents < 2:
        raise ConfigurationError(
            f"neighborhood_agents must be at least 2, got {neighborhood_agents}"
        )
    value = (tau * neighborhood_agents - 2.0) / (neighborhood_agents - 1.0)
    return float(max(value, 0.0))


def tau_hat(tau: float, neighborhood_agents: int, epsilon: float = 0.0) -> float:
    """The paper's ``tau_hat = tau (1 - 1 / (tau N^{1/2 - eps}))`` (Section III).

    ``epsilon`` is the technical exponent of the concentration argument; the
    asymptotically conservative choice ``epsilon = 0`` is the default.
    """
    if tau <= 0.0:
        return 0.0
    if not 0.0 <= epsilon < 0.5:
        raise ConfigurationError(f"epsilon must lie in [0, 1/2), got {epsilon}")
    scale = neighborhood_agents ** (0.5 - epsilon)
    return float(max(tau * (1.0 - 1.0 / (tau * scale)), 0.0))


def tau_bar(tau: float, neighborhood_agents: int) -> float:
    """The paper's ``tau_bar = 1 - tau + 2/N`` used for ``tau > 1/2`` (Sec. IV.C)."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigurationError(f"tau must lie in [0, 1], got {tau}")
    return float(1.0 - tau + 2.0 / neighborhood_agents)


def mirrored_tau(tau: float) -> float:
    """Map an intolerance above 1/2 to its symmetric counterpart below 1/2.

    The paper extends every result from ``tau < 1/2`` to ``tau > 1/2`` via the
    super-unhappy-agent symmetry; theory functions use this helper to apply
    the reflection.
    """
    if not 0.0 <= tau <= 1.0:
        raise ConfigurationError(f"tau must lie in [0, 1], got {tau}")
    return tau if tau <= 0.5 else 1.0 - tau


def interval_widths() -> dict[str, float]:
    """Widths of the segregation intervals highlighted in Figure 2.

    Returns the width of the monochromatic interval
    ``(tau1, 1 - tau1) \\ {1/2}`` (≈ 0.134) and of the full interval including
    the almost-monochromatic extension ``(tau2, 1 - tau2) \\ {1/2}``
    (≈ 0.312).
    """
    return {
        "monochromatic": 1.0 - 2.0 * tau1(),
        "almost_monochromatic": 1.0 - 2.0 * tau2(),
    }
