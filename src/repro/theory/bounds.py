"""Probability bounds from the paper's lemmas, in exact and asymptotic form.

The segregation benchmarks compare three quantities against Monte-Carlo
estimates:

* Lemma 19 — the probability ``p_u`` that an arbitrary agent is unhappy in the
  initial Bernoulli(1/2) configuration, bracketed by
  ``c 2^{-[1 - H(tau')] N} / sqrt(N)``.
* Lemma 20 / 22 — the probability that a neighbourhood of radius
  ``(1 + eps') w`` is a *radical region* and the probability that a radius-r
  neighbourhood contains one.
* The exact binomial expressions behind both, evaluated by
  :func:`binomial_cdf` at any finite ``N``, which are what the Monte-Carlo
  estimates should match.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.config import ModelConfig
from repro.core.initializer import radical_region_threshold
from repro.core.neighborhood import neighborhood_size
from repro.errors import ConfigurationError
from repro.theory.entropy import binary_entropy_complement
from repro.theory.thresholds import mirrored_tau, tau_prime, trigger_epsilon


def binomial_cdf(k: int, n: int, p: float) -> float:
    """``P(Binomial(n, p) <= k)``, summed in log space.

    Returns exactly ``0.0`` or ``1.0`` when the event is certain either way
    (``k < 0``, ``k >= n``, ``p`` in ``{0, 1}``).  Each term's logarithm is
    taken of the exact integer ``comb(n, j)``, so the tail stays finite and
    accurate to about ``1e-12`` relative for ``n`` in the thousands, where
    ``comb(n, j)`` itself overflows a double.
    """
    if k < 0:
        return 0.0
    if k >= n or p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    logs = []
    coefficient = 1  # comb(n, j), updated exactly
    for j in range(k + 1):
        logs.append(math.fsum((math.log(coefficient), j * log_p, (n - j) * log_q)))
        coefficient = coefficient * (n - j) // (j + 1)
    top = max(logs)
    return min(1.0, math.exp(top) * math.fsum(math.exp(v - top) for v in logs))


def exact_unhappy_probability(config: ModelConfig) -> float:
    """Exact ``p_u`` for the initial configuration (Eq. 30 of the paper).

    An agent is unhappy when fewer than ``ceil(tau N)`` of the ``N`` agents in
    its neighbourhood (itself included) share its type; with a Bernoulli(p)
    initialisation and the agent's own type fixed, the same-type count is
    ``1 + Binomial(N - 1, q)`` where ``q`` is ``p`` for a ``+1`` agent and
    ``1 - p`` for a ``-1`` agent.  For ``p = 1/2`` the two terms coincide and
    reduce to the paper's expression.
    """
    n = config.neighborhood_agents
    threshold = config.happiness_threshold
    # Unhappy iff 1 + Binomial(N-1, q) <= threshold - 1.
    k = threshold - 2
    p = config.density
    prob_plus = binomial_cdf(k, n - 1, p)
    prob_minus = binomial_cdf(k, n - 1, 1.0 - p)
    return p * prob_plus + (1.0 - p) * prob_minus


def unhappy_probability_bounds(config: ModelConfig) -> tuple[float, float]:
    """Lemma 19 bracket ``(lower, upper)`` on ``p_u`` for ``p = 1/2``.

    The constants of the lemma are not made explicit in the paper; the
    returned bracket uses the central-binomial-coefficient inequalities from
    the lemma's own proof, which are valid for every ``N`` with explicit
    constants.
    """
    if abs(config.density - 0.5) > 1e-12:
        raise ConfigurationError("Lemma 19 is stated for density p = 1/2")
    n = config.neighborhood_agents
    tp = tau_prime(mirrored_tau(config.tau), n)
    if tp <= 0.0 or tp >= 0.5:
        raise ConfigurationError(
            f"Lemma 19 requires 0 < tau' < 1/2, got tau'={tp:.4f}"
        )
    rate = binary_entropy_complement(tp)
    # From the proof: binom(N-1, tau'(N-1)) <= sum <= (1-tau')/(1-2tau') * binom,
    # and Stirling brackets the central coefficient within explicit constants.
    base = 2.0 ** (-rate * (n - 1)) / math.sqrt(
        max((n - 1) * tp * (1.0 - tp), 1e-12)
    )
    lower = (1.0 / math.sqrt(8.0)) * base * 2.0 ** (-1.0)
    upper = (1.0 / math.sqrt(math.pi / 2.0)) * base * (1.0 - tp) / (1.0 - 2.0 * tp)
    return lower, upper


def unhappy_probability_exponent(tau: float, neighborhood_agents: Optional[int] = None) -> float:
    """The decay exponent ``1 - H(tau')`` of Lemma 19 (per neighbourhood agent)."""
    tau = mirrored_tau(tau)
    if neighborhood_agents is None:
        effective = tau
    else:
        effective = tau_prime(tau, neighborhood_agents)
    return binary_entropy_complement(effective)


def exact_radical_region_probability(
    config: ModelConfig, epsilon_prime: Optional[float] = None
) -> float:
    """Exact probability that a radius ``(1 + eps') w`` window is a radical region.

    A radical region (for a ``+1`` cascade) holds *fewer than*
    ``tau_hat (1 + eps')^2 N`` agents of type ``-1``; with the Bernoulli(p)
    initialisation the minority count is ``Binomial(N_R, 1 - p)`` where
    ``N_R`` is the number of agents in the window.
    """
    if epsilon_prime is None:
        epsilon_prime = trigger_epsilon(config.tau)
    radius = int(math.floor((1.0 + epsilon_prime) * config.horizon))
    n_region = neighborhood_size(radius)
    threshold = radical_region_threshold(config, epsilon_prime)
    return binomial_cdf(threshold - 1, n_region, 1.0 - config.density)


def radical_region_probability_exponent(
    tau: float, epsilon_prime: Optional[float] = None
) -> float:
    """Lemma 20 asymptotic exponent ``[1 - H(tau)](1 + eps')^2`` per agent.

    The probability that a window of radius ``(1 + eps') w`` is a radical
    region behaves like ``2^{-[1 - H(tau)](1 + eps')^2 N}`` up to ``o(N)``
    corrections (the ``tau''`` of the lemma converges to ``tau``).
    """
    tau = mirrored_tau(tau)
    if epsilon_prime is None:
        epsilon_prime = trigger_epsilon(tau)
    return binary_entropy_complement(tau) * (1.0 + epsilon_prime) ** 2


def radical_in_neighborhood_exponent(
    tau: float, epsilon_prime: Optional[float] = None
) -> float:
    """Lemma 22 exponent: ``[1 - H(tau)](2 eps' + eps'^2)`` per agent.

    A neighbourhood of radius ``r = 2^{[1 - H(tau')] N / 2 - o(N)}`` contains a
    radical region with probability at least
    ``2^{-[1 - H(tau')](2 eps' + eps'^2) N - o(N)}``; this is the exponent that
    carries through to the lower bound ``a(tau)``.
    """
    tau = mirrored_tau(tau)
    if epsilon_prime is None:
        epsilon_prime = trigger_epsilon(tau)
    eps = epsilon_prime
    return binary_entropy_complement(tau) * (2.0 * eps + eps * eps)


def firewall_radius_scale(tau: float, neighborhood_agents: int) -> float:
    """The paper's radius scale ``r = 2^{[1 - H(tau')] N / 2}`` (Lemma 6 et seq.).

    This is the natural length scale of the monochromatic regions; the
    scaling benchmarks report it alongside the measured radii.
    """
    rate = unhappy_probability_exponent(tau, neighborhood_agents)
    return 2.0 ** (rate * neighborhood_agents / 2.0)
