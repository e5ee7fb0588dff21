"""Tests for the probability bounds of Lemmas 19, 20 and 22.

SciPy is a test-only oracle here: the library evaluates the binomial tails
itself (:func:`repro.theory.bounds.binomial_cdf`).
"""

import math
import sys

import numpy as np
import pytest
from scipy import stats

from repro.core.config import ModelConfig
from repro.core.neighborhood import neighborhood_size
from repro.errors import ConfigurationError
from repro.theory.bounds import (
    binomial_cdf,
    exact_radical_region_probability,
    exact_unhappy_probability,
    firewall_radius_scale,
    radical_in_neighborhood_exponent,
    radical_region_probability_exponent,
    unhappy_probability_bounds,
    unhappy_probability_exponent,
)
from repro.theory.thresholds import tau2, trigger_epsilon

#: The largest window the library sums a binomial over: the radical region of
#: ``exact_radical_region_probability`` at horizon 20, whose default radius
#: ``(1 + f(tau)) w`` is widest for ``tau`` just above ``tau2``.
RADICAL_WINDOW_W20 = neighborhood_size(
    math.floor((1.0 + trigger_epsilon(round(tau2() + 0.005, 4))) * 20)
)
#: Every size up to 48 (the ``w = 3`` neighbourhood), then the neighbourhood
#: sizes ``N - 1`` of Eq. (30) up to ``w = 20`` and the ``w = 20`` radical
#: window, where ``comb(n, k)`` overflows a double.
TAIL_SIZES = [*range(1, 49), 120, 440, 1680, RADICAL_WINDOW_W20]
TAIL_PROBABILITIES = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]


def tail_ks(n: int) -> list[int]:
    """``k`` from ``-1`` to ``n + 1``: every value, or ~60 of them above 200."""
    if n <= 200:
        return list(range(-1, n + 2))
    return sorted({*range(-1, n + 2, n // 60), n - 1, n, n + 1})


class TestBinomialCdf:
    @pytest.mark.parametrize("n", TAIL_SIZES)
    def test_matches_scipy(self, n):
        ks = tail_ks(n)
        for p in TAIL_PROBABILITIES:
            expected = stats.binom.cdf(ks, n, p)
            for k, want in zip(ks, expected):
                got = binomial_cdf(k, n, p)
                if k < 0 or (p == 1.0 and k < n):
                    assert got == 0.0, (n, p, k)
                elif k >= n or p == 0.0:
                    assert got == 1.0, (n, p, k)
                else:
                    # Below the smallest normal double a relative tolerance
                    # is finer than the float grid, so subnormals only need
                    # to underflow together.
                    assert math.isclose(
                        got, want, rel_tol=1e-12, abs_tol=sys.float_info.min
                    ), (n, p, k, got, want)

    def test_finite_where_the_coefficient_overflows(self):
        n = RADICAL_WINDOW_W20
        assert n % 2 == 1
        with pytest.raises(OverflowError):
            float(math.comb(n, n // 2))
        # For odd n, P(Binomial(n, 1/2) <= (n - 1) / 2) = 1/2 by symmetry.
        assert binomial_cdf(n // 2, n, 0.5) == pytest.approx(0.5, rel=1e-12, abs=0)


@pytest.fixture
def config() -> ModelConfig:
    return ModelConfig.square(side=40, horizon=2, tau=0.45)


class TestExactUnhappyProbability:
    def test_matches_direct_binomial(self, config):
        n = config.neighborhood_agents
        threshold = config.happiness_threshold
        expected = stats.binom.cdf(threshold - 2, n - 1, 0.5)
        assert exact_unhappy_probability(config) == pytest.approx(expected)

    def test_zero_for_zero_tau(self):
        config = ModelConfig.square(side=40, horizon=2, tau=0.0)
        assert exact_unhappy_probability(config) == 0.0

    def test_increases_with_tau(self):
        values = [
            exact_unhappy_probability(ModelConfig.square(40, 2, tau))
            for tau in (0.3, 0.4, 0.5)
        ]
        assert values == sorted(values)

    def test_decreases_with_horizon_for_fixed_tau_below_half(self):
        values = [
            exact_unhappy_probability(ModelConfig.square(60, w, 0.42))
            for w in (2, 3, 4)
        ]
        assert values[0] > values[1] > values[2]

    @pytest.mark.parametrize("density", [0.0, 1.0])
    def test_single_type_start_has_no_unhappy_agent(self, density):
        config = ModelConfig.square(40, 2, 0.45, density=density)
        assert exact_unhappy_probability(config) == 0.0

    def test_asymmetric_density_accounted(self):
        balanced = exact_unhappy_probability(ModelConfig.square(40, 2, 0.45, density=0.5))
        skewed = exact_unhappy_probability(ModelConfig.square(40, 2, 0.45, density=0.9))
        # With p = 0.9 most agents are +1 and happy; minority -1 agents are
        # usually unhappy but they are few, so overall p_u differs from 1/2 case.
        assert skewed != pytest.approx(balanced)


class TestLemma19Bounds:
    def test_bracket_contains_exact_value(self, config):
        lower, upper = unhappy_probability_bounds(config)
        exact = exact_unhappy_probability(config)
        assert lower <= exact <= upper

    def test_bracket_for_several_horizons(self):
        for horizon in (2, 3, 4, 5):
            config = ModelConfig.square(side=80, horizon=horizon, tau=0.45)
            lower, upper = unhappy_probability_bounds(config)
            exact = exact_unhappy_probability(config)
            assert lower <= exact <= upper, f"failed at horizon {horizon}"

    def test_requires_half_density(self):
        config = ModelConfig.square(side=40, horizon=2, tau=0.45, density=0.6)
        with pytest.raises(ConfigurationError):
            unhappy_probability_bounds(config)

    def test_requires_tau_prime_in_range(self):
        config = ModelConfig.square(side=40, horizon=2, tau=0.05)
        with pytest.raises(ConfigurationError):
            unhappy_probability_bounds(config)

    def test_exponent_matches_complement_entropy(self):
        from repro.theory.entropy import binary_entropy_complement

        assert unhappy_probability_exponent(0.45) == pytest.approx(
            binary_entropy_complement(0.45)
        )

    def test_exponent_symmetric(self):
        assert unhappy_probability_exponent(0.6) == pytest.approx(
            unhappy_probability_exponent(0.4)
        )


class TestRadicalRegionProbabilities:
    def test_exact_probability_in_unit_interval(self, config):
        p = exact_radical_region_probability(config, epsilon_prime=0.5)
        assert 0.0 < p < 1.0

    def test_probability_increases_with_tau(self):
        # A larger intolerance allows more minority agents inside a radical
        # region, so the region event becomes more likely.
        values = [
            exact_radical_region_probability(
                ModelConfig.square(80, 3, tau), epsilon_prime=0.5
            )
            for tau in (0.38, 0.42, 0.46)
        ]
        assert values[0] < values[1] < values[2]

    def test_probability_rarer_than_single_unhappy_agent(self):
        # Lemma 20's event is exponentially rarer than Lemma 19's.
        config = ModelConfig.square(80, 4, 0.45)
        assert exact_radical_region_probability(
            config, epsilon_prime=0.5
        ) < exact_unhappy_probability(config)

    def test_single_type_start(self):
        # All -1 agents: the minority of a +1 cascade fills every window.
        # All +1 agents: every window is radical.
        all_minus = ModelConfig.square(40, 2, 0.45, density=0.0)
        all_plus = ModelConfig.square(40, 2, 0.45, density=1.0)
        assert exact_radical_region_probability(all_minus, epsilon_prime=0.5) == 0.0
        assert exact_radical_region_probability(all_plus, epsilon_prime=0.5) == 1.0

    def test_default_epsilon_prime_used(self, config):
        assert exact_radical_region_probability(config) >= 0.0

    def test_exponent_larger_than_unhappy_exponent(self):
        # A radical region is a rarer event than a single unhappy agent.
        assert radical_region_probability_exponent(0.45) > unhappy_probability_exponent(0.45)

    def test_lemma22_exponent_smaller_than_lemma20(self):
        # Lemma 22 amortises the radical-region cost over a large neighbourhood:
        # (2e+e^2) < (1+e)^2.
        assert radical_in_neighborhood_exponent(0.45) < radical_region_probability_exponent(0.45)

    def test_exponents_positive(self):
        for tau in (0.36, 0.42, 0.48):
            assert radical_region_probability_exponent(tau) > 0
            assert radical_in_neighborhood_exponent(tau) > 0


class TestFirewallRadiusScale:
    def test_grows_with_n(self):
        assert firewall_radius_scale(0.45, 81) > firewall_radius_scale(0.45, 25)

    def test_grows_as_tau_moves_away_from_half(self):
        assert firewall_radius_scale(0.42, 49) > firewall_radius_scale(0.48, 49)

    def test_at_least_one(self):
        assert firewall_radius_scale(0.499, 9) >= 1.0
