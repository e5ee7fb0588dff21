"""Tests for the validation helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.validation import (
    require_in_range,
    require_odd,
    require_positive,
    require_positive_int,
    require_probability,
    require_spin_array,
)


class TestRequirePositiveInt:
    def test_accepts_positive(self):
        assert require_positive_int(3, "x") == 3

    def test_accepts_numpy_integer(self):
        assert require_positive_int(np.int64(5), "x") == 5

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            require_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_positive_int(-2, "x")

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError):
            require_positive_int(2.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            require_positive_int(True, "x")

    def test_error_mentions_name(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            require_positive_int(-1, "horizon")


class TestRequirePositive:
    def test_accepts_float(self):
        assert require_positive(0.5, "x") == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            require_positive(0.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            require_positive(float("nan"), "x")

    def test_rejects_infinity(self):
        with pytest.raises(ConfigurationError):
            require_positive(float("inf"), "x")

    def test_rejects_non_numeric(self):
        with pytest.raises(ConfigurationError):
            require_positive("three", "x")


class TestRequireProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert require_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_rejects_invalid(self, value):
        with pytest.raises(ConfigurationError):
            require_probability(value, "p")


class TestRequireInRange:
    def test_inclusive_endpoints(self):
        assert require_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert require_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_exclusive_endpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            require_in_range(0.0, "x", 0.0, 1.0, inclusive=False)

    def test_exclusive_interior_accepted(self):
        assert require_in_range(0.5, "x", 0.0, 1.0, inclusive=False) == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            require_in_range(2.0, "x", 0.0, 1.0)


class TestRequireOdd:
    def test_accepts_odd(self):
        assert require_odd(5, "x") == 5

    def test_rejects_even(self):
        with pytest.raises(ConfigurationError):
            require_odd(4, "x")


class TestRequireSpinArray:
    def test_accepts_plus_minus_ones(self):
        arr = require_spin_array([[1, -1], [-1, 1]])
        assert arr.dtype == np.int8
        assert arr.shape == (2, 2)

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            require_spin_array([[1, 0], [-1, 1]])

    def test_rejects_one_dimensional(self):
        with pytest.raises(ConfigurationError):
            require_spin_array([1, -1, 1])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            require_spin_array(np.zeros((0, 3)))

    def test_preserves_values(self):
        original = np.array([[1, -1], [1, 1]], dtype=np.int64)
        arr = require_spin_array(original)
        assert np.array_equal(arr, original)

    def test_message_lists_offending_values(self):
        with pytest.raises(
            ConfigurationError,
            match=r"^configuration entries must all be \+1 or -1, found values \[-1  0  1  2\]$",
        ):
            require_spin_array([[1, 0], [-1, 2]])

    def test_message_lists_at_most_eight_values(self):
        with pytest.raises(ConfigurationError, match=r"found values \[-5 -4 -3 -2 -1  0  1  2\]$"):
            require_spin_array(np.arange(-5, 20).reshape(5, 5), "spins")

    def test_all_true_bool_array_is_all_plus(self):
        arr = require_spin_array(np.ones((2, 3), dtype=bool))
        assert arr.dtype == np.int8
        assert arr.tolist() == [[1, 1, 1], [1, 1, 1]]

    def test_bool_array_with_false_rejected(self):
        with pytest.raises(ConfigurationError, match=r"found values \[False  True\]"):
            require_spin_array(np.array([[True, False]]))

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError, match=r"found values \[ 1\. nan\]"):
            require_spin_array(np.array([[np.nan, 1.0]]))

    def test_float_spins(self):
        arr = require_spin_array(np.array([[1.0, -1.0]]))
        assert arr.dtype == np.int8
        assert arr.tolist() == [[1, -1]]
        with pytest.raises(ConfigurationError, match=r"found values \[-1\.   1\.5\]"):
            require_spin_array(np.array([[1.5, -1.0]]))
