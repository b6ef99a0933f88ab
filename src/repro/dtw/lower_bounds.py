"""Lower bounds for DTW: LB_Kim, LB_Yi, LB_Keogh and the band envelope.

These bounds (Keogh, "Exact indexing of dynamic time warping", VLDB 2002 —
reference [7] of the paper) are not part of the sDTW contribution but are
standard retrieval substrate: they let a k-NN search skip full DTW
computations whose lower bound already exceeds the current best.  They are
included so the retrieval package can demonstrate the classic pruning
pipeline next to the paper's constraint-based approach.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._validation import as_series, check_int_at_least


def kim_profile(x: Union[Sequence[float], np.ndarray]) -> np.ndarray:
    """The LB_Kim feature quadruple ``[first, last, min, max]`` of a series.

    Profiles are a constant-size summary that can be precomputed once per
    stored series and compared in O(1) per pair (the engine's stage-1
    bound), or stacked into a ``(C, 4)`` matrix for
    :func:`lb_kim_batch`.
    """
    xs = as_series(x, "x")
    return np.array([xs[0], xs[-1], xs.min(), xs.max()], dtype=float)


def lb_kim(x: Union[Sequence[float], np.ndarray],
           y: Union[Sequence[float], np.ndarray]) -> float:
    """LB_Kim lower bound using the first/last/min/max feature quadruple.

    For the absolute-difference ground distance, the DTW distance is at
    least the largest of the four feature differences, because each of the
    four features must be matched by at least one path step.
    """
    xs = as_series(x, "x")
    ys = as_series(y, "y")
    features = (
        abs(xs[0] - ys[0]),
        abs(xs[-1] - ys[-1]),
        abs(xs.max() - ys.max()),
        abs(xs.min() - ys.min()),
    )
    return float(max(features))


def lb_kim_batch(query_profile: np.ndarray, profiles: np.ndarray) -> np.ndarray:
    """Vectorised LB_Kim of one query against ``C`` candidate profiles.

    Parameters
    ----------
    query_profile:
        The query's :func:`kim_profile` (shape ``(4,)``).
    profiles:
        Stacked candidate profiles, shape ``(C, 4)``.

    Returns
    -------
    numpy.ndarray
        ``(C,)`` array of bounds, identical to calling :func:`lb_kim` per
        pair.
    """
    query_profile = np.asarray(query_profile, dtype=float).reshape(1, 4)
    profiles = np.asarray(profiles, dtype=float)
    if profiles.ndim != 2 or profiles.shape[1] != 4:
        raise ValueError("profiles must have shape (C, 4)")
    return np.abs(profiles - query_profile).max(axis=1)


def lb_yi(x: Union[Sequence[float], np.ndarray],
          y: Union[Sequence[float], np.ndarray]) -> float:
    """LB_Yi lower bound: mass of one series outside the other's value range."""
    xs = as_series(x, "x")
    ys = as_series(y, "y")
    lo, hi = ys.min(), ys.max()
    above = xs[xs > hi] - hi
    below = lo - xs[xs < lo]
    return float(above.sum() + below.sum())


def keogh_envelope(
    y: Union[Sequence[float], np.ndarray], radius: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Upper and lower envelope of *y* under a Sakoe–Chiba band of *radius*.

    Returns
    -------
    (upper, lower):
        Arrays where ``upper[i] = max(y[i-r : i+r+1])`` and
        ``lower[i] = min(y[i-r : i+r+1])``.
    """
    ys = as_series(y, "y")
    radius = check_int_at_least(radius, 0, "radius")
    m = ys.size
    if radius >= m:
        # Global envelope: every window covers the whole series.  This is
        # the always-admissible envelope the batch engine uses for
        # constraints that are not contained in a Sakoe-Chiba band.
        return np.full(m, ys.max()), np.full(m, ys.min())
    # Sliding-window extrema via a padded strided view (the pad values are
    # the identity elements of max/min, so edge windows see only real data).
    width = 2 * radius + 1
    padded = np.full(m + 2 * radius, -np.inf)
    padded[radius: radius + m] = ys
    upper = sliding_window_view(padded, width).max(axis=1)
    padded = np.full(m + 2 * radius, np.inf)
    padded[radius: radius + m] = ys
    lower = sliding_window_view(padded, width).min(axis=1)
    return upper, lower


def lb_keogh(
    x: Union[Sequence[float], np.ndarray],
    y: Union[Sequence[float], np.ndarray],
    radius: int,
    envelope: Tuple[np.ndarray, np.ndarray] = None,
) -> float:
    """LB_Keogh lower bound of the DTW distance under a Sakoe–Chiba band.

    Parameters
    ----------
    x:
        Query series.
    y:
        Candidate series (its envelope is used).
    radius:
        Sakoe–Chiba radius in samples.
    envelope:
        Optional precomputed ``(upper, lower)`` envelope of *y*, as returned
        by :func:`keogh_envelope`, to amortise envelope construction across
        many queries.

    Notes
    -----
    The bound requires equal-length series; unequal lengths are compared
    over the common prefix, which keeps the bound admissible for the
    absolute-difference ground distance.
    """
    xs = as_series(x, "x")
    ys = as_series(y, "y")
    if envelope is None:
        upper, lower = keogh_envelope(ys, radius)
    else:
        upper, lower = envelope
        upper = np.asarray(upper, dtype=float)
        lower = np.asarray(lower, dtype=float)
    length = min(xs.size, upper.size)
    xs = xs[:length]
    upper = upper[:length]
    lower = lower[:length]
    above = np.where(xs > upper, xs - upper, 0.0)
    below = np.where(xs < lower, lower - xs, 0.0)
    return float(np.sum(above + below))


def range_extrema_table(
    y: Union[Sequence[float], np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse tables of the range minima and maxima of *y*.

    Row ``k`` of each ``(levels, m)`` table holds the minimum (maximum)
    of ``y[j : j + 2**k]`` at column ``j``; entries whose range runs past
    the end are never read.  Built once per series in O(m log m), the
    tables give the extrema of any range ``y[lo..hi]`` exactly from two
    overlapping power-of-two ranges (see :func:`lb_band_envelope`).
    """
    ys = as_series(y, "y")
    m = ys.size
    levels = m.bit_length()
    mins = np.full((levels, m), np.inf)
    maxs = np.full((levels, m), -np.inf)
    mins[0] = maxs[0] = ys
    for k in range(1, levels):
        half = 1 << (k - 1)
        count = m - 2 * half + 1
        np.minimum(mins[k - 1, :count], mins[k - 1, half: half + count],
                   out=mins[k, :count])
        np.maximum(maxs[k - 1, :count], maxs[k - 1, half: half + count],
                   out=maxs[k, :count])
    return mins, maxs


def lb_band_envelope(
    windows: np.ndarray,
    bands: np.ndarray,
    table: Tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Band-envelope lower bound of the banded DTW of ``C`` series at once.

    Row ``i`` of series ``c`` contributes the distance from
    ``windows[c, i]`` to ``[min, max]`` of ``y[lo..hi]``, where
    ``[lo, hi]`` is row ``i`` of ``bands[c]``.  This is LB_Keogh with the
    envelope taken over each row's band window instead of a Sakoe–Chiba
    window.  It is admissible for the absolute-difference ground distance:
    every warp path inside the band visits each row ``i`` at some column
    in ``[lo_i, hi_i]``, and that cell costs at least the row's term.

    Parameters
    ----------
    windows:
        ``(C, n)`` matrix of series.
    bands:
        ``(C, n, 2)`` stack of bands over ``y``.
    table:
        :func:`range_extrema_table` of ``y``.

    Returns
    -------
    numpy.ndarray
        ``(C,)`` array of bounds.
    """
    mins, maxs = table
    lo = bands[..., 0]
    hi = bands[..., 1]
    # The largest power of two 2**k not above the range length; the two
    # ranges starting at lo and ending at hi cover [lo, hi] between them.
    level = np.frexp(hi - lo + 1)[1] - 1
    right = hi + 1 - np.left_shift(1, level)
    lower = np.minimum(mins[level, lo], mins[level, right])
    upper = np.maximum(maxs[level, lo], maxs[level, right])
    above = np.maximum(windows - upper, 0.0)
    below = np.maximum(lower - windows, 0.0)
    return np.sum(above + below, axis=1)


def lb_keogh_batch(
    x: Union[Sequence[float], np.ndarray],
    uppers: np.ndarray,
    lowers: np.ndarray,
) -> np.ndarray:
    """Vectorised LB_Keogh of one query against ``C`` stacked envelopes.

    Parameters
    ----------
    x:
        The query series (length L).
    uppers, lowers:
        Candidate envelopes stacked into ``(C, L)`` matrices (equal-length
        collections only; see :func:`keogh_envelope`).

    Returns
    -------
    numpy.ndarray
        ``(C,)`` array of bounds, identical to calling :func:`lb_keogh`
        per pair with the same envelopes (the reductions run over the same
        contiguous axis, so the floating-point results match bit for bit).
    """
    xs = as_series(x, "x")
    uppers = np.asarray(uppers, dtype=float)
    lowers = np.asarray(lowers, dtype=float)
    if uppers.ndim != 2 or uppers.shape != lowers.shape:
        raise ValueError("uppers and lowers must be equal-shaped (C, L) matrices")
    if uppers.shape[1] != xs.size:
        raise ValueError(
            f"query length {xs.size} does not match envelope length "
            f"{uppers.shape[1]}"
        )
    row = xs[np.newaxis, :]
    above = np.where(row > uppers, row - uppers, 0.0)
    below = np.where(row < lowers, lowers - row, 0.0)
    return np.sum(above + below, axis=1)
