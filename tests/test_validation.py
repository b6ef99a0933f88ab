"""Tests for the internal validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro._validation import (
    as_series,
    check_fraction,
    check_int_at_least,
    check_non_negative,
    check_positive,
    check_probability_vector,
)
from repro.exceptions import EmptySeriesError, ValidationError


class TestAsSeries:
    def test_list_input_converted_to_float_array(self):
        arr = as_series([1, 2, 3])
        assert arr.dtype == float
        assert arr.tolist() == [1.0, 2.0, 3.0]

    def test_numpy_input_copied_not_aliased(self):
        original = np.array([1.0, 2.0])
        arr = as_series(original)
        arr[0] = 99.0
        assert original[0] == 1.0

    def test_generator_input_accepted(self):
        arr = as_series(float(v) for v in range(5))
        assert arr.size == 5

    def test_empty_input_raises_empty_series_error(self):
        with pytest.raises(EmptySeriesError):
            as_series([])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValidationError):
            as_series(np.zeros((3, 3)))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            as_series([1.0, np.nan, 2.0])

    def test_infinity_rejected(self):
        with pytest.raises(ValidationError):
            as_series([1.0, np.inf])

    @pytest.mark.parametrize(
        "values", [["a", "b"], [[1.0, 2.0], [3.0]], 5, [{}]]
    )
    def test_non_numeric_values_raise_validation_error(self, values):
        with pytest.raises(ValidationError, match="myarg"):
            as_series(values, name="myarg")

    def test_name_appears_in_error_message(self):
        with pytest.raises(ValidationError, match="myarg"):
            as_series([np.nan], name="myarg")

    def test_result_is_contiguous(self):
        arr = as_series(np.arange(10.0)[::2])
        assert arr.flags["C_CONTIGUOUS"]


class TestScalarChecks:
    def test_check_positive_accepts_positive(self):
        assert check_positive(2.5, "v") == 2.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive(0.0, "v")

    def test_check_positive_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive(-1.0, "v")

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative(0.0, "v") == 0.0

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative(-0.1, "v")

    def test_check_fraction_inclusive_bounds(self):
        assert check_fraction(0.0, "v") == 0.0
        assert check_fraction(1.0, "v") == 1.0

    def test_check_fraction_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            check_fraction(0.0, "v", inclusive=False)
        with pytest.raises(ValidationError):
            check_fraction(1.0, "v", inclusive=False)

    def test_check_fraction_out_of_range(self):
        with pytest.raises(ValidationError):
            check_fraction(1.5, "v")

    def test_check_int_at_least_accepts_minimum(self):
        assert check_int_at_least(3, 3, "v") == 3

    def test_check_int_at_least_rejects_below_minimum(self):
        with pytest.raises(ValidationError):
            check_int_at_least(2, 3, "v")

    def test_check_int_at_least_rejects_non_integer(self):
        with pytest.raises(ValidationError):
            check_int_at_least(2.5, 1, "v")


class TestProbabilityVector:
    def test_normalises_to_unit_sum(self):
        vec = check_probability_vector([1.0, 1.0, 2.0])
        assert vec.sum() == pytest.approx(1.0)
        assert vec[2] == pytest.approx(0.5)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            check_probability_vector([0.5, -0.5])

    def test_rejects_zero_sum(self):
        with pytest.raises(ValidationError):
            check_probability_vector([0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            check_probability_vector([])
