"""Batched DTW kernels: one query against many candidates in lock-step.

When every candidate shares the same constraint band (the ``full``,
Sakoe–Chiba and Itakura families over an equal-length collection), the
banded dynamic program can advance row ``i`` for *all* candidates with a
handful of numpy operations on ``(C, width)`` matrices instead of ``C``
separate Python-level row loops.  The row update is the same closed form
used by the distance-only path of :func:`repro.dtw.banded.banded_dtw`:

    vals[j] = prefix[j] + min_{t <= j} (diag_or_up[t] - prefix[t - 1])

and because numpy's ``cumsum`` and ``minimum.accumulate`` apply the same
sequential order along the last axis of a 2-D array as on a 1-D array,
the batched distances are bit-identical to the per-pair ones — which is
what the cross-backend equivalence suite pins down.

Early abandonment works per candidate: a candidate whose whole row exceeds
the threshold can never beat it (costs are non-negative), so its row is
compacted out of the batch and contributes no further work; when every
candidate is abandoned the kernel returns immediately.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..dtw.banded import Band, abandon_cutoff
from ..exceptions import BandError


def banded_dtw_batch(
    query: np.ndarray,
    candidates: np.ndarray,
    band: Band,
    func,
    abandon_threshold: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band-constrained DTW of one query against a stack of candidates.

    Parameters
    ----------
    query:
        Query series of length N.
    candidates:
        ``(C, M)`` matrix of equal-length candidate series.
    band:
        A *validated* band of shape ``(N, 2)`` shared by every candidate
        (validate with :func:`repro.dtw.banded.validate_band` first).
    func:
        Pointwise distance callable (broadcasting).
    abandon_threshold:
        Optional early-abandoning threshold applied to every candidate.

    Returns
    -------
    (distances, cells, abandoned):
        ``(C,)`` float distances (``inf`` where abandoned), ``(C,)`` int
        cells filled per candidate (counted up to the abandoned row, like
        the per-pair kernel), and a ``(C,)`` boolean abandonment mask.
    """
    xs = np.asarray(query, dtype=float)
    ys = np.asarray(candidates, dtype=float)
    if ys.ndim != 2:
        raise ValueError("candidates must be a (C, M) matrix")
    count, m = ys.shape
    n = xs.size
    inf = np.inf

    distances = np.full(count, inf)
    cells = np.zeros(count, dtype=np.int64)
    abandoned = np.zeros(count, dtype=bool)
    if count == 0:
        return distances, cells, abandoned

    # ``alive`` maps the rows still being computed back to their original
    # candidate indices; abandoned candidates are compacted out so their
    # rows stop being computed at all (each row's recurrence is
    # independent, so compaction cannot change the surviving values).
    alive = np.arange(count)
    ys_alive = ys
    prev_lo = prev_hi = -1
    prev_vals: Optional[np.ndarray] = None
    for i in range(n):
        lo = int(band[i, 0])
        hi = int(band[i, 1])
        width = hi - lo + 1
        cells[alive] += width
        row_cost = func(xs[i], ys_alive[:, lo: hi + 1])
        prefix = np.cumsum(row_cost, axis=1)
        if prev_vals is None:
            vals = prefix if lo == 0 else np.full((alive.size, width), inf)
        else:
            padded = np.full((alive.size, width + 1), inf)
            overlap_lo = max(lo - 1, prev_lo)
            overlap_hi = min(hi, prev_hi)
            if overlap_hi >= overlap_lo:
                padded[:, overlap_lo - (lo - 1): overlap_hi - (lo - 1) + 1] = (
                    prev_vals[:, overlap_lo - prev_lo: overlap_hi - prev_lo + 1]
                )
            diag_or_up = np.minimum(padded[:, :-1], padded[:, 1:])
            shifted = np.empty((alive.size, width))
            shifted[:, 0] = 0.0
            shifted[:, 1:] = prefix[:, :-1]
            vals = prefix + np.minimum.accumulate(diag_or_up - shifted, axis=1)
        if abandon_threshold is not None:
            exceeded = vals.min(axis=1) > abandon_cutoff(abandon_threshold)
            if exceeded.any():
                abandoned[alive[exceeded]] = True
                keep = ~exceeded
                if not keep.any():
                    return distances, cells, abandoned
                alive = alive[keep]
                ys_alive = ys_alive[keep]
                vals = vals[keep]
        prev_lo, prev_hi, prev_vals = lo, hi, vals

    if not (prev_lo <= m - 1 <= prev_hi):
        raise BandError(
            "band does not admit any warp path from (0, 0) to (n-1, m-1); "
            "use repair=True to bridge gaps"
        )
    final = prev_vals[:, m - 1 - prev_lo]
    if not np.isfinite(final).all():
        raise BandError(
            "band does not admit any warp path from (0, 0) to (n-1, m-1); "
            "use repair=True to bridge gaps"
        )
    distances[alive] = final
    return distances, cells, abandoned
