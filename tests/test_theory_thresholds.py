"""Tests for the paper's thresholds tau1, tau2, f(tau) and rescaled intolerances."""

import numpy as np
import pytest
from scipy import optimize

from repro.errors import ConfigurationError
from repro.theory.thresholds import (
    interval_widths,
    mirrored_tau,
    tau1,
    tau1_equation,
    tau2,
    tau2_equation,
    tau_bar,
    tau_hat,
    tau_prime,
    trigger_epsilon,
    trigger_epsilon_curve,
)


class TestTau1:
    def test_paper_value(self):
        # The paper reports tau1 ≈ 0.433.
        assert tau1() == pytest.approx(0.433, abs=0.001)

    def test_matches_brentq(self):
        # SciPy is a test-only oracle for the library's bisection.
        reference = optimize.brentq(tau1_equation, 0.40, 0.499, xtol=1e-12)
        assert abs(tau1() - reference) <= 1e-12

    def test_is_root_of_equation_one(self):
        assert tau1_equation(tau1()) == pytest.approx(0.0, abs=1e-9)

    def test_equation_sign_change(self):
        assert tau1_equation(0.40) < 0
        assert tau1_equation(0.49) > 0

    def test_equation_domain_checked(self):
        with pytest.raises(ConfigurationError):
            tau1_equation(0.8)

    def test_cached_value_stable(self):
        assert tau1() == tau1()


class TestTau2:
    def test_exact_rational_value(self):
        # 1024 x^2 - 384 x + 11 factors with roots 1/32 and 11/32.
        assert tau2() == pytest.approx(11.0 / 32.0)

    def test_paper_value(self):
        assert tau2() == pytest.approx(0.344, abs=0.001)

    def test_is_root_of_equation_three(self):
        assert tau2_equation(tau2()) == pytest.approx(0.0, abs=1e-6)

    def test_other_root_not_chosen(self):
        assert tau2() > 0.1

    def test_ordering_of_thresholds(self):
        assert 0.25 < tau2() < tau1() < 0.5


class TestIntervalWidths:
    def test_paper_widths(self):
        widths = interval_widths()
        # The paper quotes ≈ 0.134 and ≈ 0.312.
        assert widths["monochromatic"] == pytest.approx(0.134, abs=0.002)
        assert widths["almost_monochromatic"] == pytest.approx(0.3125, abs=0.001)

    def test_almost_interval_contains_monochromatic(self):
        widths = interval_widths()
        assert widths["almost_monochromatic"] > widths["monochromatic"]


class TestTriggerEpsilon:
    def test_vanishes_at_half(self):
        assert trigger_epsilon(0.5) == pytest.approx(0.0)

    def test_increases_as_tau_decreases(self):
        values = [trigger_epsilon(t) for t in (0.48, 0.45, 0.40, 0.36)]
        assert values == sorted(values)

    def test_below_half_for_theorem_range(self):
        # The paper notes f(tau) < 1/2 on (tau2, 1/2).
        for tau in np.linspace(tau2() + 1e-3, 0.499, 20):
            assert 0.0 <= trigger_epsilon(float(tau)) < 0.5

    def test_symmetry_above_half(self):
        assert trigger_epsilon(0.55) == pytest.approx(trigger_epsilon(0.45))

    def test_hand_computed_value(self):
        # At tau = 0.45: delta = -0.05, 3 tau + 0.5 = 1.85.
        delta = -0.05
        expected = (3 * delta + np.sqrt(9 * delta**2 - 7 * delta * 1.85)) / (2 * 1.85)
        assert trigger_epsilon(0.45) == pytest.approx(expected)

    def test_curve_matches_scalar(self):
        taus = np.array([0.40, 0.45, 0.48])
        curve = trigger_epsilon_curve(taus)
        for tau, value in zip(taus, curve):
            assert value == pytest.approx(trigger_epsilon(float(tau)))

    def test_invalid_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            trigger_epsilon(0.0)


class TestRescaledIntolerances:
    def test_tau_prime_formula(self):
        assert tau_prime(0.45, 25) == pytest.approx((0.45 * 25 - 2) / 24)

    def test_tau_prime_approaches_tau(self):
        assert tau_prime(0.45, 10**6) == pytest.approx(0.45, abs=1e-4)

    def test_tau_prime_clamped_at_zero(self):
        assert tau_prime(0.01, 9) == 0.0

    def test_tau_prime_requires_two_agents(self):
        with pytest.raises(ConfigurationError):
            tau_prime(0.45, 1)

    def test_tau_hat_below_tau(self):
        assert tau_hat(0.45, 49) < 0.45

    def test_tau_hat_approaches_tau(self):
        assert tau_hat(0.45, 10**8) == pytest.approx(0.45, abs=1e-3)

    def test_tau_hat_zero_for_zero_tau(self):
        assert tau_hat(0.0, 49) == 0.0

    def test_tau_hat_epsilon_validated(self):
        with pytest.raises(ConfigurationError):
            tau_hat(0.45, 49, epsilon=0.7)

    def test_tau_bar_formula(self):
        assert tau_bar(0.6, 25) == pytest.approx(1.0 - 0.6 + 2.0 / 25)

    def test_tau_bar_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            tau_bar(1.5, 25)

    def test_mirrored_tau(self):
        assert mirrored_tau(0.3) == 0.3
        assert mirrored_tau(0.7) == pytest.approx(0.3)
        assert mirrored_tau(0.5) == 0.5

    def test_mirrored_tau_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            mirrored_tau(-0.1)
