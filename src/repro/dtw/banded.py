"""DTW restricted to an arbitrary per-row window ("band").

Every constraint family in the paper — Sakoe–Chiba, Itakura, and all four
sDTW locally relevant constraint types — ultimately reduces to the same
primitive: for each index ``i`` of the first series, a contiguous window
``[lo_i, hi_i]`` of indices of the second series that the warp path may
visit.  This module implements the dynamic program over such a window,
counting exactly how many grid cells are filled (the basis of the paper's
time-gain measure) and backtracking the constrained-optimal warp path.
:func:`banded_dtw_batch` runs the distance-only program for many pairs in
lock-step, with each of the row series, the column series and the band
either stacked per pair or shared: the engine's batches (one query,
stacked candidates, one band) and a stream block's windows (stacked
windows, one pattern, a band per window) run this one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_series
from ..exceptions import BandError, ValidationError
from .distances import PointwiseDistance, get_pointwise_distance
from .path import WarpPath

# A band is an integer array of shape (N, 2): row i holds the inclusive
# column window [lo_i, hi_i] of the second series reachable from x_i.
Band = np.ndarray


def abandon_cutoff(threshold: float) -> float:
    """The row-minimum cutoff above which early abandonment may fire.

    The vectorised row recurrence evaluates ``prefix[j] + min_t
    (diag_or_up[t] - prefix[t-1])``, a reassociation of the scalar DP
    that can leave accumulated path costs non-monotone across rows by a
    few ulps (cancellation against the row prefix sums).  Abandoning at
    ``row_min > threshold`` exactly can therefore fire when the true
    distance *equals* the threshold.  The slack absorbs that rounding,
    keeping abandonment provably conservative; it only defers pruning of
    candidates within a hair of the threshold, never changes distances.
    """
    return threshold + 1e-9 * max(1.0, abs(threshold))


def validate_band(band: np.ndarray, n: int, m: int, *, repair: bool = False) -> np.ndarray:
    """Validate (and optionally repair) a per-row window band.

    A usable band must

    * have shape ``(n, 2)`` with integer ``lo <= hi`` per row,
    * keep every window inside ``[0, m - 1]``,
    * include the corner cells ``(0, 0)`` and ``(n - 1, m - 1)``,
    * be *connected*: consecutive windows must overlap or touch diagonally
      (``lo[i] <= hi[i - 1] + 1``),
    * be *reachable*: because the warp-path step pattern never decreases
      the column, only the cells ``[a_i, hi_i]`` of row ``i`` with
      ``a_i = max(lo_i, a_{i-1})`` can lie on a path; every window must
      satisfy ``hi_i >= a_{i-1}``.  Comparing only adjacent rows
      (``hi[i] >= lo[i - 1]``) is not enough: a band of length-1 windows
      can wiggle backwards, pass every adjacent-row check, and still admit
      no warp path at all.

    With ``repair=True`` the band is widened just enough to restore the
    corner and connectivity requirements (this is the "gap bridging" the
    paper describes for empty intervals in Section 3.3.2); otherwise a
    :class:`BandError` is raised for violations.
    """
    arr = np.array(band, dtype=int, copy=True)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise BandError(f"band must have shape (n, 2), got {arr.shape}")
    if arr.shape[0] != n:
        raise BandError(f"band has {arr.shape[0]} rows but the series has {n} points")

    np.clip(arr, 0, m - 1, out=arr)
    bad = arr[:, 0] > arr[:, 1]
    if bad.any():
        if repair:
            arr[bad] = arr[bad][:, ::-1]
        else:
            raise BandError("band has rows with lo > hi")

    # Corner cells must be inside the band for a warp path to exist.
    if arr[0, 0] != 0:
        if repair:
            arr[0, 0] = 0
        else:
            raise BandError("band must contain the start cell (0, 0)")
    if arr[n - 1, 1] != m - 1:
        if repair:
            arr[n - 1, 1] = m - 1
        else:
            raise BandError("band must contain the end cell (n-1, m-1)")

    # Connectivity / reachability between consecutive rows.  The common
    # case (bands produced by this library's builders) needs no repair, so
    # the violations are detected vectorised and the sequential repair loop
    # only runs when something is actually wrong.  ``reach[i]`` is the
    # leftmost column a warp path can occupy in row i (the running maximum
    # of the window starts): a window whose end falls left of it can never
    # be entered, even when it overlaps the adjacent row.
    if n > 1:
        reach = np.maximum.accumulate(arr[:, 0])
        disconnected = arr[1:, 0] > arr[:-1, 1] + 1
        unreachable = arr[1:, 1] < reach[:-1]
        if (disconnected | unreachable).any():
            if not repair:
                row = int(np.flatnonzero(disconnected | unreachable)[0]) + 1
                if disconnected[row - 1]:
                    raise BandError(
                        f"band is disconnected between rows {row - 1} and {row}: "
                        f"window [{arr[row, 0]}, {arr[row, 1]}] does not touch "
                        f"[{arr[row - 1, 0]}, {arr[row - 1, 1]}]"
                    )
                raise BandError(
                    f"band moves backwards at row {row}: window "
                    f"[{arr[row, 0]}, {arr[row, 1]}] ends before the leftmost "
                    f"reachable column {reach[row - 1]}"
                )
            reachable_lo = int(arr[0, 0])
            for i in range(1, n):
                if arr[i, 0] > arr[i - 1, 1] + 1:
                    arr[i, 0] = arr[i - 1, 1] + 1
                if arr[i, 1] < reachable_lo:
                    arr[i, 1] = reachable_lo
                if arr[i, 0] > arr[i, 1]:
                    arr[i, 0] = arr[i, 1]
                reachable_lo = max(reachable_lo, int(arr[i, 0]))
    return arr


def validate_bands(
    bands: np.ndarray, n: int, m: Union[int, np.ndarray]
) -> np.ndarray:
    """``validate_band(band, n, m, repair=True)`` for a ``(count, n, 2)`` stack.

    *m* is the column count of every band, or one per band.  The
    clipping and every check of :func:`validate_band` run over the whole
    stack at once.  A band that passes them is its clipped self, which
    is what :func:`validate_band` returns for it; only the bands that
    fail one go through :func:`validate_band` to be repaired.  A stack
    of one goes through it directly.
    """
    columns = np.broadcast_to(np.asarray(m, dtype=np.intp), (len(bands),))
    if len(bands) == 1:
        return validate_band(bands[0], n, int(columns[0]), repair=True)[None]
    last = columns - 1
    arr = np.clip(bands, 0, last[:, None, None])
    lo, hi = arr[..., 0], arr[..., 1]
    broken = (lo > hi).any(axis=1) | (lo[:, 0] != 0) | (hi[:, n - 1] != last)
    if n > 1:
        reach = np.maximum.accumulate(lo, axis=1)
        broken |= (lo[:, 1:] > hi[:, :-1] + 1).any(axis=1)
        broken |= (hi[:, 1:] < reach[:, :-1]).any(axis=1)
    for index in np.flatnonzero(broken).tolist():
        arr[index] = validate_band(bands[index], n, int(columns[index]), repair=True)
    return arr


def band_cell_count(band: np.ndarray) -> int:
    """Number of grid cells covered by the band (cells the DP will fill)."""
    arr = np.asarray(band, dtype=int)
    return int(np.sum(arr[:, 1] - arr[:, 0] + 1))


def band_to_mask(band: np.ndarray, m: int) -> np.ndarray:
    """Expand a per-row window band into a boolean ``(n, m)`` mask."""
    arr = np.asarray(band, dtype=int)
    n = arr.shape[0]
    mask = np.zeros((n, m), dtype=bool)
    for i in range(n):
        mask[i, arr[i, 0]: arr[i, 1] + 1] = True
    return mask


def mask_to_band(mask: np.ndarray, *, repair: bool = True) -> np.ndarray:
    """Collapse a boolean mask into a per-row window band.

    Rows with no True cells get a degenerate window copied from the nearest
    populated neighbour (a form of gap bridging).  Holes inside a row are
    filled, because the DP requires contiguous windows.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise BandError("mask must be two-dimensional")
    n, m = mask.shape
    band = np.zeros((n, 2), dtype=int)
    last_window: Optional[Tuple[int, int]] = None
    missing_rows = []
    for i in range(n):
        cols = np.flatnonzero(mask[i])
        if cols.size == 0:
            missing_rows.append(i)
            band[i] = (-1, -1)
            continue
        band[i] = (int(cols[0]), int(cols[-1]))
        last_window = (int(cols[0]), int(cols[-1]))
    if missing_rows:
        if last_window is None:
            raise BandError("mask has no populated rows")
        # Forward/backward fill empty rows from the nearest populated row.
        for i in missing_rows:
            prev_i = i - 1
            while prev_i >= 0 and band[prev_i, 0] < 0:
                prev_i -= 1
            next_i = i + 1
            while next_i < n and band[next_i, 0] < 0:
                next_i += 1
            if prev_i >= 0:
                band[i] = band[prev_i]
            elif next_i < n:
                band[i] = band[next_i]
    return validate_band(band, n, m, repair=repair)


def union_bands(*bands: np.ndarray) -> np.ndarray:
    """Per-row union (widest cover) of several bands of identical height.

    Used to render adaptive constraints symmetric: the paper suggests
    running the band construction with the roles of X and Y swapped and
    performing the dynamic programming over the combined band.
    """
    if not bands:
        raise BandError("union_bands requires at least one band")
    arrays = [np.asarray(b, dtype=int) for b in bands]
    heights = {a.shape[0] for a in arrays}
    if len(heights) != 1:
        raise BandError("bands must all have the same number of rows")
    lo = np.min(np.stack([a[:, 0] for a in arrays]), axis=0)
    hi = np.max(np.stack([a[:, 1] for a in arrays]), axis=0)
    return np.stack([lo, hi], axis=1)


def intersect_bands(*bands: np.ndarray) -> np.ndarray:
    """Per-row intersection (narrowest cover) of several bands.

    Rows where the intersection would be empty keep a single-cell window at
    the midpoint of the overlap gap, so the result remains a usable band
    after repair.
    """
    if not bands:
        raise BandError("intersect_bands requires at least one band")
    arrays = [np.asarray(b, dtype=int) for b in bands]
    heights = {a.shape[0] for a in arrays}
    if len(heights) != 1:
        raise BandError("bands must all have the same number of rows")
    lo = np.max(np.stack([a[:, 0] for a in arrays]), axis=0)
    hi = np.min(np.stack([a[:, 1] for a in arrays]), axis=0)
    empty = lo > hi
    if np.any(empty):
        mid = ((lo + hi) // 2)[empty]
        lo = lo.copy()
        hi = hi.copy()
        lo[empty] = mid
        hi[empty] = mid
    return np.stack([lo, hi], axis=1)


def transpose_band(band: np.ndarray, n: int, m: int) -> np.ndarray:
    """Convert a band over an ``(n, m)`` grid into the equivalent band over
    the transposed ``(m, n)`` grid.

    Needed when combining the X-driven and Y-driven adaptive bands into a
    symmetric constraint.
    """
    mask = band_to_mask(validate_band(band, n, m, repair=True), m)
    return mask_to_band(mask.T)


@dataclass(frozen=True)
class BandedDTWResult:
    """Result of a band-constrained DTW computation.

    Attributes
    ----------
    distance:
        Cost of the best warp path restricted to the band, or ``inf`` when
        the computation was abandoned early.
    path:
        The constrained-optimal warp path, or ``None`` when not requested.
    cells_filled:
        Number of grid cells the dynamic program evaluated (band area, or
        the cells filled up to the abandoned row).
    band:
        The (validated, possibly repaired) band actually used.
    abandoned:
        True when an ``abandon_threshold`` was given and every cell of some
        row exceeded it, proving the final distance must exceed the
        threshold; the remaining rows were skipped.
    """

    distance: float
    path: Optional[WarpPath]
    cells_filled: int
    band: np.ndarray
    abandoned: bool = False

    @property
    def cell_fraction(self) -> float:
        """Fraction of the full N*M grid that was filled."""
        n = self.band.shape[0]
        m = int(self.band[:, 1].max()) + 1
        return self.cells_filled / float(n * m)


def banded_dtw(
    x: Union[Sequence[float], np.ndarray],
    y: Union[Sequence[float], np.ndarray],
    band: np.ndarray,
    distance: Union[str, PointwiseDistance, None] = None,
    *,
    return_path: bool = True,
    repair: bool = True,
    abandon_threshold: Optional[float] = None,
) -> BandedDTWResult:
    """Compute DTW restricted to a per-row window band.

    Parameters
    ----------
    x, y:
        The two time series (lengths N and M).
    band:
        Integer array of shape ``(N, 2)``: inclusive column windows.
    distance:
        Pointwise distance name or callable (default absolute difference).
    return_path:
        Whether to backtrack the constrained-optimal warp path.
    repair:
        Whether to automatically bridge gaps / clip the band so the DP can
        complete (the paper's gap-bridging rule); if False a malformed band
        raises :class:`BandError`.
    abandon_threshold:
        Early-abandoning threshold for k-NN search: when given, the DP
        stops as soon as the minimum accumulated cost of a whole row
        exceeds it (the final distance can then only be larger, because
        pointwise costs are non-negative) and the result carries
        ``abandoned=True`` with ``distance=inf``.  Only available on the
        distance-only path, where no backtracking state is kept.
    """
    xs = as_series(x, "x")
    ys = as_series(y, "y")
    func = get_pointwise_distance(distance)
    n, m = xs.size, ys.size
    window = validate_band(band, n, m, repair=repair)

    if return_path:
        if abandon_threshold is not None:
            raise ValidationError(
                "abandon_threshold requires return_path=False: an abandoned "
                "computation has no warp path to backtrack"
            )
        return _banded_dtw_with_path(xs, ys, window, func)
    return _banded_dtw_distance_only(xs, ys, window, func, abandon_threshold)


# Byte budget for one block of rows' pointwise costs and prefix sums.  A
# narrow band over a whole series fits in one block; a full band on a long
# series gets a few rows per block, so the block stays in cache and the
# scan's extra memory does not grow with series length.
_BLOCK_BYTES = 1 << 16


def _banded_dtw_distance_only(
    xs: np.ndarray,
    ys: np.ndarray,
    window: np.ndarray,
    func,
    abandon_threshold: Optional[float] = None,
) -> BandedDTWResult:
    """Distance-only banded DP: vectorised row recurrence, no back-pointers.

    The row update ``vals[j] = cost[j] + min(diag_or_up[j], vals[j - 1])``
    is a scan, but it has a closed form over the row's cost prefix sums:

        vals[j] = prefix[j] + min_{t <= j} (diag_or_up[t] - prefix[t - 1])

    which turns the per-cell Python loop into ``cumsum`` plus a running
    minimum (``np.minimum.accumulate``).  The lock-step kernel
    :func:`banded_dtw_batch` applies the same formulation to every pair
    of a batch, so the per-pair and batched code paths produce
    bit-identical distances.

    A narrow band spends its time on per-call overhead, not arithmetic, so
    each row costs four in-place numpy calls:

    * Pointwise costs and their prefix sums are computed for a block of
      rows at once, one call each.  Each block row holds
      ``[0, prefix[0], ..., prefix[w - 1]]``, so ``prefix`` and the
      shifted ``prefix[t - 1]`` (``0`` at ``t = 0``) are two views of one
      row.
    * The DP row lives in one preallocated buffer indexed by column and
      inf outside the current window.  A row reads its predecessor's
      diagonal and up cells from the buffer into a scratch row, subtracts
      the shifted prefix in place, takes the running minimum, and writes
      ``prefix + minimum`` over its own window.  Cells the window has left
      behind are reset to inf.
    * The abandonment test first probes the cell that kept the previous
      row under the cutoff; any cell at or under it keeps the row alive.
      Only when the probe fails does the row pay for a full ``argmin``.
      The decision is the same as comparing the row minimum.

    The result is bit-identical to computing each row on its own.  Every
    block row is a sequential ``cumsum`` from the window's first column,
    exactly as a one-row ``cumsum``.  The scratch row then sees the same
    ``min``, subtraction (including ``- 0`` at ``t = 0``), running minimum
    and addition on the same operands in the same order.

    Memory: the rows per block are set from the widest window so that one
    block of prefix sums takes at most ``_BLOCK_BYTES`` (or one row, if a
    single row is wider).  Beyond the two series the scan holds the O(m)
    row buffer, a scratch row and one block with its temporaries, however
    many rows the band has; a full band never materialises an O(n * m)
    cost or prefix matrix.
    """
    n, m = xs.size, ys.size
    inf = np.inf
    los = window[:, 0]
    widths = window[:, 1] - los + 1
    max_width = int(widths.max())
    block_rows = max(1, _BLOCK_BYTES // (8 * (max_width + 1)))
    # row[j + 1] is column j of the last finished row; row[0] stands for
    # column -1, the diagonal predecessor of column 0, and is always inf.
    row = np.full(m + 1, inf)
    scratch = np.empty(max_width)
    cutoff = None if abandon_threshold is None else abandon_cutoff(abandon_threshold)
    # Offset of the cell that kept the last fully checked row alive.
    witness = 0
    bounds = window.tolist()
    cells = 0
    prev_lo, prev_hi = 0, -1
    scratch_width = -1
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        block_width = int(widths[start:stop].max())
        columns = los[start:stop, np.newaxis] + np.arange(block_width)
        costs = func(xs[start:stop, np.newaxis], np.take(ys, columns, mode="clip"))
        sums = np.empty((stop - start, block_width + 1))
        sums[:, 0] = 0.0
        np.cumsum(costs, axis=1, out=sums[:, 1:])
        for (lo, hi), row_sums in zip(bounds[start:stop], sums):
            width = hi - lo + 1
            cells += width
            if prev_hi < 0:
                # First row: only horizontal moves are possible.
                if lo == 0:
                    row[1: width + 1] = row_sums[1: width + 1]
            else:
                if width != scratch_width:
                    vals = scratch[:width]
                    scratch_width = width
                # min(up, diag) for the whole row, then the closed form.
                np.minimum(row[lo: hi + 1], row[lo + 1: hi + 2], out=vals)
                vals -= row_sums[:width]
                np.minimum.accumulate(vals, out=vals)
                np.add(row_sums[1: width + 1], vals, out=row[lo + 1: hi + 2])
                if prev_lo < lo:
                    if prev_lo + 1 == lo:
                        row[lo] = inf
                    else:
                        row[prev_lo + 1: lo + 1] = inf
                if prev_hi > hi:
                    row[hi + 2: prev_hi + 2] = inf
            if cutoff is not None:
                # One cell at or under the cutoff keeps the row alive, so
                # test the cell that did last time before a full argmin.
                probe = witness if witness < width else width - 1
                if not row[lo + 1 + probe] <= cutoff:
                    current = row[lo + 1: hi + 2]
                    probe = int(current.argmin())
                    if current[probe] > cutoff:
                        # Every continuation only adds non-negative costs,
                        # so the final distance is guaranteed to exceed
                        # the threshold.
                        return BandedDTWResult(
                            distance=inf, path=None, cells_filled=cells,
                            band=window, abandoned=True,
                        )
                    witness = probe
            prev_lo, prev_hi = lo, hi

    # Columns outside the last window hold inf, so this also catches a
    # last row that misses column m - 1.
    final = float(row[m])
    if not np.isfinite(final):
        raise BandError(
            "band does not admit any warp path from (0, 0) to (n-1, m-1); "
            "use repair=True to bridge gaps"
        )
    return BandedDTWResult(distance=final, path=None, cells_filled=cells, band=window)


def banded_dtw_batch(
    xs: np.ndarray,
    ys: np.ndarray,
    bands: np.ndarray,
    func,
    abandon_threshold: Optional[float] = None,
    *,
    m: Union[int, np.ndarray, None] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded DTW of many pairs in lock-step.

    Pair ``c`` is row series ``xs[c]`` against the first ``m[c]`` values
    of column series ``ys[c]`` under band ``bands[c]``, and each of the
    four may instead be one operand shared by every pair.  The engine
    runs one query (shared) against stacked candidates, under one band or
    a band per candidate, the candidates' columns padded on the right to
    the longest; a stream matcher runs stacked windows against one
    pattern, each window under its own band.
    This is the lock-step form of :func:`_banded_dtw_distance_only`: row
    ``i`` of every pair advances together, so a row costs a handful of
    numpy calls on a ``(width, C)`` matrix instead of ``C`` times the
    per-pair scan's calls.

    * Each pair's window ``[lo, hi]`` is padded on the right to the
      row's widest window.  Pointwise costs and their prefix sums are
      computed for a block of rows at once, as in the per-pair scan; the
      prefix added back at the end of a row is inf in padded cells, so
      padded cells come out inf.
    * Each pair's last row is kept in a ``(slots, C)`` buffer relative
      to its own window: slot ``base + k`` holds column ``lo + k`` and
      every other slot is inf.  The buffer spans the widest window plus
      the farthest any window starts from its predecessor's start.  A
      row gathers ``min(diag, up)`` for its window from that buffer,
      subtracts the shifted prefix, takes the running minimum, adds the
      prefix and writes the row back.
    * Where the windows of a block all start together, as every block
      under a shared band does, a row reads its predecessor by slice
      instead of gathering it, and a one-row block slices its cost
      columns out of the column series.  A block whose rows each have one
      width across the pairs needs no padding.
    * A pair is abandoned at the first row whose minimum exceeds the
      cutoff, as in the per-pair scan.  Its buffer column is set to inf,
      and abandoned pairs are compacted out once they are half the
      batch.

    * A pair's band ends at its own last column ``m[c] - 1``, where its
      final distance is read.  Columns past it in a padded stack are
      read only into padded cells, so the padding must be finite (each
      series' last value, say): a NaN would reach the row minimum
      through the running minimum, and that pair would never abandon.

    Every pair sees the same operations on the same operands in the
    same order as in the per-pair scan: ``cumsum`` and
    ``minimum.accumulate`` run sequentially along each pair's row, and a
    padded cell only follows a row's real cells.  So distances are
    bit-identical, and cells (counted up to the abandoning row) and
    abandonment are equal.

    Parameters
    ----------
    xs:
        Row series: a ``(C, n)`` stack, or one series of length n shared.
    ys:
        Column series: a ``(C, width)`` stack, or one series shared.
    bands:
        *Validated* bands (see :func:`validate_band`; they are not
        checked again): a ``(C, n, 2)`` stack, or one ``(n, 2)`` band
        shared.
    func:
        Pointwise distance callable (broadcasting).
    abandon_threshold:
        Optional early-abandoning threshold applied to every pair.
    m:
        Column count of every pair, or a ``(C,)`` array of one per pair,
        each at most the width of *ys* (default: that width).  A band
        that does not end at its pair's last column raises
        :class:`BandError`.

    Returns
    -------
    (distances, cells, abandoned):
        ``(C,)`` float distances (``inf`` where abandoned), ``(C,)`` int
        cells filled per pair and a ``(C,)`` boolean abandonment mask.
        ``C`` is 1 when all three operands are shared.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    bands = np.asarray(bands)
    n, width_y = xs.shape[-1], ys.shape[-1]
    # Each pair's last column, read at the end: (1,) shared or (C,).
    last = np.asarray(width_y if m is None else m, dtype=np.intp) - 1
    stacked = {
        a.shape[0]
        for a, ndim in ((xs, 2), (ys, 2), (bands, 3), (last, 1)) if a.ndim == ndim
    }
    if len(stacked) > 1:
        raise ValueError(f"stacked operands disagree on the number of pairs: {sorted(stacked)}")
    count = stacked.pop() if stacked else 1
    last = last.reshape(-1)
    if ((last < 0) | (last >= width_y)).any():
        raise ValueError(f"column counts must lie in [1, {width_y}]")
    inf = np.inf
    distances = np.full(count, inf)
    cells = np.zeros(count, dtype=np.int64)
    abandoned = np.zeros(count, dtype=bool)
    if count == 0:
        return distances, cells, abandoned
    cutoff = None if abandon_threshold is None else abandon_cutoff(abandon_threshold)
    # Everything below is laid out (row, pair), (column, pair) or
    # (row, column, pair): pairs run along the last axis, which a shared
    # operand keeps at 1.
    xs = np.ascontiguousarray(xs.reshape(-1, n).T)
    ys = np.ascontiguousarray(ys.reshape(-1, width_y).T)
    bands = bands.reshape(-1, n, 2)
    los = np.ascontiguousarray(bands[:, :, 0].T)
    widths = bands[:, :, 1].T - los + 1
    if (los[-1] + widths[-1] - 1 != last).any():
        raise BandError("band must contain the end cell (n-1, m-1)")
    shared_band = los.shape[1] == 1
    # How far each window starts right of the previous row's window.
    shifts = np.diff(los, axis=0, prepend=los[:1])
    max_width = int(widths.max())
    steps = np.arange(max_width + 1)
    # Slot base + k of the buffer holds column lo + k of the last row; a
    # row reads slots base + shift - 1 to base + shift + width - 1.
    base = 1 - min(int(shifts.min()), 0)
    row = np.full((base + max(int(shifts.max()), 0) + max_width, count), inf)
    # ``alive`` maps buffer columns to pairs; ``live`` marks the ones not
    # yet abandoned.
    alive = np.arange(count)
    live = np.ones(count, dtype=bool)
    dead = 0
    written = 0
    scratch = np.empty((max_width, count))
    # Each row's widest window, and the buffer offset a row reads its
    # predecessor from when the windows start together.
    widest = widths.max(axis=1)
    row_widths = widest.tolist()
    reads = (base - 1 + shifts[:, 0]).tolist()

    def per_pair(values: np.ndarray, selected: np.ndarray) -> np.ndarray:
        # The selected pairs' columns of a stacked operand; a shared one
        # (one column) applies to every pair as it is.
        return values if values.shape[-1] == 1 else values[..., selected]

    def gather_offsets(start: int, stop: int, width: int) -> np.ndarray:
        # Flat buffer offsets of the diagonal/up cells of rows start..stop:
        # column lo + k - 1 sits in slot base + shift + k - 1 of the buffer.
        slots = shifts[start:stop, np.newaxis] + steps[: width + 1, np.newaxis] + (base - 1)
        return slots * alive.size + np.arange(alive.size)

    # One block of prefix sums takes at most _BLOCK_BYTES, as in the
    # per-pair scan; larger blocks fall out of cache.
    block_rows = max(1, _BLOCK_BYTES // (8 * count * (max_width + 1)))
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        width = max(row_widths[start:stop])
        # Equal window starts over the block and the row before it give
        # every pair the same start and shift in each row of the block.
        first = max(start - 1, 0)
        together = shared_band or bool((los[first:stop] == los[first:stop, :1]).all())
        if together and stop - start == 1:
            lo = int(los[start, 0])
            columns = ys[np.newaxis, lo: lo + width]
        elif together:
            columns = np.take(ys, los[start:stop, :1] + steps[:width], axis=0, mode="clip")
        else:
            index = los[start:stop, np.newaxis] + steps[:width, np.newaxis]
            if ys.shape[1] == 1:
                columns = np.take(ys[:, 0], index, mode="clip")
            else:
                columns = ys[np.minimum(index, width_y - 1), np.arange(alive.size)]
            offsets = gather_offsets(start, stop, width)
        costs = func(xs[start:stop, np.newaxis], columns)
        sums = np.empty((stop - start, width + 1) + costs.shape[2:])
        sums[:, 0] = 0.0
        np.cumsum(costs, axis=1, out=sums[:, 1:])
        del columns, costs
        if shared_band or bool((widths[start:stop] == widest[start:stop, np.newaxis]).all()):
            ends = sums[:, 1:]
        else:
            ends = np.where(
                steps[:width, np.newaxis] < widths[start:stop, np.newaxis], sums[:, 1:], inf
            )
        for r, w in enumerate(row_widths[start:stop]):
            current = row[base: base + w]
            if start + r == 0:
                # First row: only horizontal moves (validated bands start at 0).
                current[...] = ends[0, :w]
            else:
                if together:
                    previous = row[reads[start + r]: reads[start + r] + w + 1]
                else:
                    previous = np.take(row, offsets[r, : w + 1])
                vals = np.minimum(previous[:w], previous[1:], out=scratch[:w])
                vals -= sums[r, :w]
                np.minimum.accumulate(vals, axis=0, out=vals)
                np.add(vals, ends[r, :w], out=current)
            if w < written:
                row[base + w: base + written] = inf
            written = w
            if cutoff is None:
                continue
            over = current.min(axis=0) > cutoff
            if np.count_nonzero(over) == dead:
                continue
            # Every continuation only adds non-negative costs.  An abandoned
            # pair's buffer stays inf from here on, so it stays over.
            newly = over & live
            abandoned[alive[newly]] = True
            cells[alive[newly]] = per_pair(widths[: start + r + 1].sum(axis=0), newly)
            live &= ~newly
            row[:, newly] = inf
            dead = alive.size - int(np.count_nonzero(live))
            if dead == alive.size:
                return distances, cells, abandoned
            if 2 * dead >= alive.size:
                keep = live
                alive, row = alive[keep], row[:, keep]
                xs, ys, los, widths, shifts, sums, ends, last = (
                    per_pair(values, keep)
                    for values in (xs, ys, los, widths, shifts, sums, ends, last)
                )
                # This block's rows keep their widths; later blocks read
                # the survivors' widths and starts.
                widest = widths.max(axis=1)
                row_widths, reads = widest.tolist(), (base - 1 + shifts[:, 0]).tolist()
                if not together:
                    offsets = gather_offsets(start, stop, width)
                live = np.ones(alive.size, dtype=bool)
                scratch = np.empty((max_width, alive.size))
                dead = 0

    # Each pair's last column in the last row; abandoned pairs hold inf.
    final = row[base + last - los[-1], np.arange(alive.size)][live]
    if not np.isfinite(final).all():
        raise BandError(
            "band does not admit any warp path from (0, 0) to (n-1, m-1); "
            "use repair=True to bridge gaps"
        )
    distances[alive[live]] = final
    cells[alive[live]] = per_pair(widths.sum(axis=0), live)
    return distances, cells, abandoned


def _banded_dtw_with_path(
    xs: np.ndarray, ys: np.ndarray, window: np.ndarray, func
) -> BandedDTWResult:
    """Banded DP with back-pointer bookkeeping for warp-path recovery."""
    n, m = xs.size, ys.size
    acc_rows = []
    cells = 0
    back_pointers: Dict[Tuple[int, int], Tuple[int, int]] = {}

    prev_lo = prev_hi = None
    prev_vals: Optional[np.ndarray] = None
    for i in range(n):
        lo, hi = int(window[i, 0]), int(window[i, 1])
        width = hi - lo + 1
        cells += width
        row_cost = func(xs[i], ys[lo: hi + 1])
        vals = np.full(width, np.inf)
        for idx in range(width):
            j = lo + idx
            if i == 0 and j == 0:
                best = 0.0
                origin = None
            else:
                best = np.inf
                origin = None
                # Left neighbour (i, j-1).
                if idx > 0 and vals[idx - 1] < best:
                    best = vals[idx - 1]
                    origin = (i, j - 1)
                if prev_vals is not None:
                    # Up neighbour (i-1, j).
                    if prev_lo <= j <= prev_hi:
                        cand = prev_vals[j - prev_lo]
                        if cand < best:
                            best = cand
                            origin = (i - 1, j)
                    # Diagonal neighbour (i-1, j-1).
                    if prev_lo <= j - 1 <= prev_hi:
                        cand = prev_vals[j - 1 - prev_lo]
                        if cand < best:
                            best = cand
                            origin = (i - 1, j - 1)
            if np.isinf(best):
                vals[idx] = np.inf
                continue
            vals[idx] = best + row_cost[idx]
            if origin is not None:
                back_pointers[(i, j)] = origin
        acc_rows.append((lo, hi, vals))
        prev_lo, prev_hi, prev_vals = lo, hi, vals

    end_lo, end_hi, end_vals = acc_rows[-1]
    if not (end_lo <= m - 1 <= end_hi) or np.isinf(end_vals[m - 1 - end_lo]):
        raise BandError(
            "band does not admit any warp path from (0, 0) to (n-1, m-1); "
            "use repair=True to bridge gaps"
        )
    final = float(end_vals[m - 1 - end_lo])

    pairs = [(n - 1, m - 1)]
    cursor = (n - 1, m - 1)
    while cursor != (0, 0):
        cursor = back_pointers[cursor]
        pairs.append(cursor)
    pairs.reverse()
    path = WarpPath(tuple(pairs))

    return BandedDTWResult(distance=final, path=path, cells_filled=cells, band=window)


def dtw_with_band(
    x: Union[Sequence[float], np.ndarray],
    y: Union[Sequence[float], np.ndarray],
    band: Optional[np.ndarray] = None,
    distance: Union[str, PointwiseDistance, None] = None,
) -> float:
    """Convenience wrapper returning just the (banded) DTW distance.

    With ``band=None`` this is the exact DTW distance.
    """
    if band is None:
        from .full import dtw_distance

        return dtw_distance(x, y, distance)
    return banded_dtw(x, y, band, distance, return_path=False).distance
