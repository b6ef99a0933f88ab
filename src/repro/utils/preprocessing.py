"""Time-series preprocessing primitives.

The salient-feature extraction in :mod:`repro.core.scale_space` builds its
own Gaussian pyramid on top of :func:`gaussian_smooth_rows`; the dataset
generators and examples use the normalisation and resampling helpers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .._validation import as_series, check_int_at_least, check_positive


def gaussian_kernel(sigma: float, truncate: float = 4.0) -> np.ndarray:
    """Discrete, normalised 1-D Gaussian kernel with standard deviation *sigma*.

    The kernel is truncated at ``truncate * sigma`` samples on each side
    (matching the common scipy convention) and normalised to sum to one so
    smoothing preserves the series mean.  Returns a fresh copy of the
    cached kernel.
    """
    return _kernel(check_positive(sigma, "sigma"), float(truncate)).copy()


def kernel_radius(sigma: float, truncate: float = 4.0) -> int:
    """Samples :func:`gaussian_kernel` reaches on each side of its centre."""
    return max(1, int(truncate * sigma + 0.5))


@lru_cache(maxsize=256)
def _kernel(sigma: float, truncate: float) -> np.ndarray:
    """The kernel of :func:`gaussian_kernel`, built once per (σ, truncate)
    and shared read-only: feature extraction smooths at a handful of σ
    many times over."""
    radius = kernel_radius(sigma, truncate)
    positions = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-(positions ** 2) / (2.0 * sigma * sigma))
    kernel = kernel / kernel.sum()
    kernel.setflags(write=False)
    return kernel


def gaussian_smooth(
    series: Union[Sequence[float], np.ndarray],
    sigma: float,
    truncate: float = 4.0,
) -> np.ndarray:
    """Convolve *series* with a Gaussian of standard deviation *sigma*.

    Edges are handled by reflecting the series, which avoids the spurious
    boundary extrema that zero padding would introduce into the
    difference-of-Gaussian analysis.  This is :func:`gaussian_smooth_rows`
    on a stack of one.
    """
    values = as_series(series, "series")
    return gaussian_smooth_rows(values[np.newaxis], sigma, truncate)[0]


def gaussian_smooth_rows(rows: np.ndarray, sigma: float, truncate: float = 4.0) -> np.ndarray:
    """:func:`gaussian_smooth` of every row of a ``(count, n)`` stack.

    Each row is padded by reflection, ``radius`` samples a side; a row
    too short to reflect that far repeats its outermost reflected sample
    (its only sample, when ``n`` is 1).  The padded rows are laid end to
    end and convolved with one ``np.convolve`` call.  Every output sample
    is the dot product of the kernel with the ``2 * radius + 1`` padded
    samples around it, the same operands in the same order whatever lies
    beyond them, so each row equals smoothing it alone, bit for bit.
    """
    kernel = _kernel(check_positive(sigma, "sigma"), float(truncate))
    radius = (kernel.size - 1) // 2
    count, n = rows.shape
    pad = min(radius, n - 1)
    index = np.concatenate([
        np.minimum(np.arange(radius, 0, -1), pad),
        np.arange(n),
        n - 1 - np.minimum(np.arange(1, radius + 1), pad),
    ])
    width = n + 2 * radius
    smoothed = np.empty(count * width)
    smoothed[: count * width - 2 * radius] = np.convolve(
        rows[:, index].ravel(), kernel, mode="valid"
    )
    return smoothed.reshape(count, width)[:, :n]


def moving_average(
    series: Union[Sequence[float], np.ndarray], window: int
) -> np.ndarray:
    """Centred moving average with edge shrinking (output has the same length)."""
    values = as_series(series, "series")
    window = check_int_at_least(window, 1, "window")
    half = window // 2
    out = np.empty_like(values)
    for i in range(values.size):
        lo = max(0, i - half)
        hi = min(values.size, i + half + 1)
        out[i] = values[lo:hi].mean()
    return out


def z_normalize(
    series: Union[Sequence[float], np.ndarray], epsilon: float = 1e-12
) -> np.ndarray:
    """Z-normalise a series to zero mean and unit variance.

    Constant series (variance below *epsilon*) are returned as all zeros
    instead of dividing by ~0.
    """
    values = as_series(series, "series")
    mean = values.mean()
    std = values.std()
    if std < epsilon:
        return np.zeros_like(values)
    return (values - mean) / std


def min_max_normalize(
    series: Union[Sequence[float], np.ndarray], epsilon: float = 1e-12
) -> np.ndarray:
    """Rescale a series to the [0, 1] range; constant series map to 0.5."""
    values = as_series(series, "series")
    lo = values.min()
    hi = values.max()
    if hi - lo < epsilon:
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


def resample_linear(
    series: Union[Sequence[float], np.ndarray], length: int
) -> np.ndarray:
    """Resample a series to *length* points with linear interpolation."""
    values = as_series(series, "series")
    length = check_int_at_least(length, 1, "length")
    if values.size == 1:
        return np.full(length, values[0])
    old_positions = np.linspace(0.0, 1.0, values.size)
    new_positions = np.linspace(0.0, 1.0, length)
    return np.interp(new_positions, old_positions, values)


def downsample_by_two(series: Union[Sequence[float], np.ndarray]) -> np.ndarray:
    """Keep every second sample (the paper's octave downsampling rule).

    A ``(count, n)`` stack keeps every second sample of each row.
    """
    values = np.asarray(series, dtype=float)
    if values.ndim != 2:
        values = as_series(values, "series")
    return values[..., ::2].copy()
