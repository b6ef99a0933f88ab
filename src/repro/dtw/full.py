"""Unconstrained DTW: the full O(NM) dynamic program with backtracking.

This implements Section 2.1.3 of the paper: the accumulation matrix ``D``
is filled bottom-up with

    D(i, j) = min(D(i-1, j), D(i, j-1), D(i-1, j-1)) + Delta(x_i, y_j)

and the optimal warp path is recovered by walking back from ``D(N, M)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .._validation import as_series
from .distances import PointwiseDistance, get_pointwise_distance, pointwise_cost_matrix
from .path import WarpPath


@dataclass(frozen=True)
class DTWResult:
    """Result of a DTW computation.

    Attributes
    ----------
    distance:
        The DTW distance (total cost of the optimal warp path).
    path:
        The optimal warp path, or ``None`` if backtracking was not requested.
    cells_filled:
        Number of grid cells evaluated by the dynamic program.  For the
        full algorithm this is always ``N * M``; constrained variants fill
        fewer cells, and the ratio is the basis of the paper's "time gain".
    accumulated:
        The accumulated-cost matrix (``N x M``) if it was retained.
    """

    distance: float
    path: Optional[WarpPath] = None
    cells_filled: int = 0
    accumulated: Optional[np.ndarray] = None


def dtw(
    x: Union[Sequence[float], np.ndarray],
    y: Union[Sequence[float], np.ndarray],
    distance: Union[str, PointwiseDistance, None] = None,
    *,
    return_path: bool = True,
    keep_matrix: bool = False,
) -> DTWResult:
    """Compute the exact DTW distance (and optionally path) between two series.

    Parameters
    ----------
    x, y:
        The two time series.
    distance:
        Pointwise distance name or callable (default: absolute difference).
    return_path:
        If True (default), backtrack and return the optimal warp path.
    keep_matrix:
        If True, retain the full accumulated-cost matrix in the result.

    Returns
    -------
    DTWResult
    """
    xs = as_series(x, "x")
    ys = as_series(y, "y")
    cost = pointwise_cost_matrix(xs, ys, distance)
    n, m = cost.shape

    # Accumulated cost matrix with a sentinel row/column of +inf so the
    # recurrence needs no boundary special-casing.
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        row_cost = cost[i - 1]
        prev = acc[i - 1]
        curr = acc[i]
        for j in range(1, m + 1):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if curr[j - 1] < best:
                best = curr[j - 1]
            curr[j] = best + row_cost[j - 1]

    result_distance = float(acc[n, m])
    path = _backtrack(acc, cost) if return_path else None
    accumulated = np.asarray(acc[1:, 1:]) if keep_matrix else None
    return DTWResult(
        distance=result_distance,
        path=path,
        cells_filled=n * m,
        accumulated=accumulated,
    )


def dtw_distance(
    x: Union[Sequence[float], np.ndarray],
    y: Union[Sequence[float], np.ndarray],
    distance: Union[str, PointwiseDistance, None] = None,
) -> float:
    """Return only the DTW distance, keeping two rows instead of the matrix.

    Each row takes ``min(diag, up)`` for all of its cells in one numpy
    call; the left-to-right recurrence over the row then runs per cell in
    Python.
    """
    xs = as_series(x, "x")
    ys = as_series(y, "y")
    func = get_pointwise_distance(distance)
    n, m = xs.size, ys.size

    prev = np.empty(m + 1)
    prev[:] = np.inf
    prev[0] = 0.0
    curr = np.empty(m + 1)
    for i in range(n):
        row_cost = func(xs[i], ys)
        curr[0] = np.inf
        # diag_or_up[j-1] = min(prev[j-1], prev[j]) for j = 1..m
        diag_or_up = np.minimum(prev[:-1], prev[1:])
        running = np.inf
        for j in range(1, m + 1):
            best = diag_or_up[j - 1]
            if running < best:
                best = running
            running = best + row_cost[j - 1]
            curr[j] = running
        prev, curr = curr, prev
    return float(prev[m])


def _backtrack(acc: np.ndarray, cost: np.ndarray) -> WarpPath:
    """Recover the optimal warp path from the padded accumulated matrix."""
    n, m = cost.shape
    i, j = n, m
    pairs = [(n - 1, m - 1)]
    while (i, j) != (1, 1):
        candidates = (
            (acc[i - 1, j - 1], i - 1, j - 1),
            (acc[i - 1, j], i - 1, j),
            (acc[i, j - 1], i, j - 1),
        )
        _, i, j = min(candidates, key=lambda item: item[0])
        pairs.append((i - 1, j - 1))
    pairs.reverse()
    return WarpPath(tuple(pairs))


def dtw_distance_matrix(
    series: Sequence[Union[Sequence[float], np.ndarray]],
    other: Optional[Sequence[Union[Sequence[float], np.ndarray]]] = None,
    distance: Union[str, PointwiseDistance, None] = None,
) -> np.ndarray:
    """Pairwise DTW distance matrix.

    With a single collection, computes the symmetric all-pairs matrix
    (exploiting symmetry so each pair is computed once).  With two
    collections, computes the full rectangular cross matrix.
    """
    left = [as_series(s, f"series[{k}]") for k, s in enumerate(series)]
    if other is None:
        size = len(left)
        out = np.zeros((size, size))
        for a in range(size):
            for b in range(a + 1, size):
                d = dtw_distance(left[a], left[b], distance)
                out[a, b] = d
                out[b, a] = d
        return out
    right = [as_series(s, f"other[{k}]") for k, s in enumerate(other)]
    out = np.zeros((len(left), len(right)))
    for a, xs in enumerate(left):
        for b, ys in enumerate(right):
            out[a, b] = dtw_distance(xs, ys, distance)
    return out
