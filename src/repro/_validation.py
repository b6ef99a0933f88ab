"""Internal input-validation helpers shared across the library.

These helpers centralise the conversion of user-supplied sequences into
canonical 1-D ``float64`` numpy arrays and the common range checks used by
the public API.  They are internal (underscore module) but thoroughly
tested because every public entry point funnels through them.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from .exceptions import EmptySeriesError, ValidationError

ArrayLike = Union[Sequence[float], np.ndarray, Iterable[float]]


def as_series(values: ArrayLike, name: str = "series") -> np.ndarray:
    """Convert *values* to a 1-D ``float64`` array, validating its contents.

    Parameters
    ----------
    values:
        Any iterable of numbers (list, tuple, numpy array, generator).
    name:
        Name used in error messages so callers can identify which argument
        failed validation.

    Returns
    -------
    numpy.ndarray
        A contiguous 1-D float64 copy of the input.

    Raises
    ------
    EmptySeriesError
        If the input contains no elements.
    ValidationError
        If the input is not a sequence of numbers, is not one-dimensional
        or contains NaN/Inf values.
    """
    try:
        arr = np.asarray(
            list(values) if not isinstance(values, np.ndarray) else values,
            dtype=float,
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must contain only numbers: {exc}") from exc
    if arr.ndim != 1:
        raise ValidationError(
            f"{name} must be one-dimensional, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise EmptySeriesError(f"{name} must contain at least one element")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    # Always return an owned copy so callers can never mutate user data (and
    # vice versa) through the validated array.
    return np.array(arr, dtype=float, copy=True, order="C")


def check_positive(value: float, name: str) -> float:
    """Return *value* if it is strictly positive, else raise ValidationError."""
    if not value > 0:
        raise ValidationError(f"{name} must be strictly positive, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Return *value* if it is >= 0, else raise ValidationError."""
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")
    return float(value)


def check_fraction(value: float, name: str, *, inclusive: bool = True) -> float:
    """Validate that *value* lies in [0, 1] (or (0, 1) if not inclusive)."""
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise ValidationError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def check_int_at_least(value: int, minimum: int, name: str) -> int:
    """Validate that *value* is an integer >= *minimum*."""
    if int(value) != value:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_probability_vector(values: ArrayLike, name: str = "weights") -> np.ndarray:
    """Validate a non-negative vector that sums to a positive total; normalise it."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-D vector")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be non-negative and finite")
    total = arr.sum()
    if total <= 0:
        raise ValidationError(f"{name} must have a positive sum")
    return arr / total
