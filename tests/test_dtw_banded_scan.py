"""The distance-only banded scan against its row-at-a-time reference.

``reference_distance_only`` is the scan as first written: each row makes
its own pointwise costs, ``cumsum`` and inf-padded predecessor array.
The production scan computes costs and prefix sums for a block of rows
at once and keeps the DP row in one buffer updated in place, with the
same operands in the same order, so the two must agree bit for bit in
``distance``, ``cells_filled`` and ``abandoned``.  The lock-step kernel,
which runs many pairs at once with each of the row series, the column
series and the band either stacked per pair or shared, must in turn
agree bit for bit with the per-pair scan.
"""

from __future__ import annotations

import tracemalloc
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dtw import banded
from repro.dtw.banded import (
    BandedDTWResult,
    abandon_cutoff,
    banded_dtw,
    banded_dtw_batch,
    validate_band,
)
from repro.dtw.constraints import full_band, itakura_band, sakoe_chiba_band
from repro.dtw.distances import get_pointwise_distance
from repro.exceptions import BandError


def reference_distance_only(
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
    minimum (``np.minimum.accumulate``).  The same formulation is applied
    per candidate row by the batch kernel in :mod:`repro.engine`, so the
    serial and batched code paths produce bit-identical distances.
    """
    n, m = xs.size, ys.size
    cells = 0
    prev_lo = prev_hi = -1
    prev_vals: Optional[np.ndarray] = None
    inf = np.inf
    for i in range(n):
        lo = int(window[i, 0])
        hi = int(window[i, 1])
        width = hi - lo + 1
        cells += width
        row_cost = func(xs[i], ys[lo: hi + 1])
        prefix = np.cumsum(row_cost)
        if prev_vals is None:
            # First row: only horizontal moves are possible.
            vals = prefix if lo == 0 else np.full(width, inf)
        else:
            # min(up, diag) for the whole row in one pass.
            padded = np.full(width + 1, inf)
            overlap_lo = max(lo - 1, prev_lo)
            overlap_hi = min(hi, prev_hi)
            if overlap_hi >= overlap_lo:
                padded[overlap_lo - (lo - 1): overlap_hi - (lo - 1) + 1] = prev_vals[
                    overlap_lo - prev_lo: overlap_hi - prev_lo + 1
                ]
            diag_or_up = np.minimum(padded[:-1], padded[1:])
            shifted = np.empty(width)
            shifted[0] = 0.0
            shifted[1:] = prefix[:-1]
            vals = prefix + np.minimum.accumulate(diag_or_up - shifted)
        if (
            abandon_threshold is not None
            and vals.min() > abandon_cutoff(abandon_threshold)
        ):
            # Every continuation only adds non-negative costs, so the final
            # distance is guaranteed to exceed the threshold.
            return BandedDTWResult(
                distance=inf, path=None, cells_filled=cells, band=window,
                abandoned=True,
            )
        prev_lo, prev_hi, prev_vals = lo, hi, vals

    if not (prev_lo <= m - 1 <= prev_hi) or not np.isfinite(prev_vals[m - 1 - prev_lo]):
        raise BandError(
            "band does not admit any warp path from (0, 0) to (n-1, m-1); "
            "use repair=True to bridge gaps"
        )
    final = float(prev_vals[m - 1 - prev_lo])
    return BandedDTWResult(distance=final, path=None, cells_filled=cells, band=window)


# Rounded values make ties between neighbouring cells common, which is
# where an operand swapped in a min or an add would show.
values_strategy = st.one_of(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
              allow_infinity=False, width=32),
    st.integers(min_value=-3, max_value=3).map(float),
)


def series_of(length: int):
    return st.lists(values_strategy, min_size=length, max_size=length).map(
        lambda values: np.asarray(values, dtype=float)
    )


@st.composite
def scan_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["sakoe_chiba", "itakura", "full", "random"]))
    if kind == "sakoe_chiba":
        band = sakoe_chiba_band(n, m, draw(st.integers(min_value=0, max_value=12)))
    elif kind == "itakura":
        band = itakura_band(n, m, draw(st.floats(min_value=1.1, max_value=4.0)))
    elif kind == "full":
        band = full_band(n, m)
    else:
        starts = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        spans = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        band = np.stack([np.array(starts), np.array(starts) + np.array(spans)], axis=1)
    window = validate_band(band, n, m, repair=True)
    distance = draw(st.sampled_from(["absolute", "squared"]))
    return draw(series_of(n)), draw(series_of(m)), window, distance


def thresholds_for(distance: float):
    """Thresholds below, exactly at and above the true distance."""
    return [
        None,
        0.0,
        distance * 0.5,
        np.nextafter(distance, -np.inf),
        distance,
        np.nextafter(distance, np.inf),
        distance * 2.0 + 1.0,
    ]


def assert_same_result(result: BandedDTWResult, expected: BandedDTWResult) -> None:
    assert np.float64(result.distance).tobytes() == np.float64(expected.distance).tobytes()
    assert result.cells_filled == expected.cells_filled
    assert result.abandoned == expected.abandoned


class TestScanMatchesReference:
    @given(inputs=scan_inputs())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_for_every_band_distance_and_threshold(self, inputs):
        x, y, window, distance = inputs
        func = get_pointwise_distance(distance)
        exact = reference_distance_only(x, y, window, func)
        # The default block budget keeps these small grids in one block;
        # a tiny one puts every row in a block of its own, so the row
        # buffer carries the DP across block boundaries.
        for block_bytes in (banded._BLOCK_BYTES, 8):
            with mock.patch.object(banded, "_BLOCK_BYTES", block_bytes):
                for threshold in thresholds_for(exact.distance):
                    result = banded_dtw(x, y, window, distance, return_path=False,
                                        abandon_threshold=threshold)
                    assert_same_result(
                        result,
                        reference_distance_only(x, y, window, func, threshold),
                    )
                    if threshold is not None and threshold >= exact.distance:
                        # The abandonment boundary: a threshold at or above
                        # the distance must never abandon the pair.
                        assert not result.abandoned


# Operand layouts of the lock-step kernel: whether the row series, the
# column series and the band are shared by every pair.  The engine runs
# (shared, stacked, shared), a stream block (stacked, shared, stacked).
LAYOUTS = [
    (shared_x, shared_y, shared_band)
    for shared_x in (True, False)
    for shared_y in (True, False)
    for shared_band in (True, False)
]


def random_band(draw, n: int, m: int) -> np.ndarray:
    starts = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    spans = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    band = np.stack([np.array(starts), np.array(starts) + np.array(spans)], axis=1)
    return validate_band(band, n, m, repair=True)


@st.composite
def batch_inputs(draw):
    """Pairs in every operand layout; stacked bands may start together."""
    count = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=1, max_value=30))
    shared_x, shared_y, shared_band = draw(st.sampled_from(LAYOUTS))
    starts = draw(st.sampled_from(["apart", "together", "some together"]))
    if shared_band:
        bands = random_band(draw, n, m)[np.newaxis]
    elif starts == "together":
        # Every window of a row starts at one column; the ends differ.
        base = random_band(draw, n, m)
        bands = []
        for _ in range(count):
            extra = np.array(draw(st.lists(st.integers(0, m), min_size=n, max_size=n)))
            band = base.copy()
            band[:, 1] = np.minimum(base[:, 1] + extra, m - 1)
            bands.append(band)
    elif starts == "some together":
        # Pairs share one of two bands, so only some blocks start together.
        pool = [random_band(draw, n, m), random_band(draw, n, m)]
        bands = [pool[draw(st.integers(0, 1))] for _ in range(count)]
    else:
        bands = [random_band(draw, n, m) for _ in range(count)]
    xs = np.stack([draw(series_of(n)) for _ in range(1 if shared_x else count)])
    ys = np.stack([draw(series_of(m)) for _ in range(1 if shared_y else count)])
    distance = draw(st.sampled_from(["absolute", "squared"]))
    return xs, ys, np.stack(bands), (shared_x, shared_y, shared_band), distance


class TestBatchMatchesPerPair:
    @given(inputs=batch_inputs())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_per_pair_scan(self, inputs):
        xs, ys, bands, (shared_x, shared_y, shared_band), distance = inputs
        func = get_pointwise_distance(distance)
        pairs = max(len(xs), len(ys), len(bands))
        operands = [
            (xs[0 if shared_x else c], ys[0 if shared_y else c],
             bands[0 if shared_band else c])
            for c in range(pairs)
        ]
        exact = [banded_dtw(x, y, band, distance, return_path=False).distance
                 for x, y, band in operands]
        # Thresholds around each pair's distance, so that pairs abandon at
        # different rows and get compacted out mid-block.  The default
        # block budget keeps these grids in one multi-row block, a tiny one
        # puts every row in a block of its own, and one between gives
        # blocks of a few rows.
        thresholds = {None, 0.0} | {
            t for d in exact for t in (d * 0.5, d, np.nextafter(d, np.inf))
        }
        for block_bytes in (banded._BLOCK_BYTES, 8, 600):
            with mock.patch.object(banded, "_BLOCK_BYTES", block_bytes):
                for threshold in sorted(thresholds, key=lambda t: -1 if t is None else t):
                    distances, cells, abandoned = banded_dtw_batch(
                        xs[0] if shared_x else xs,
                        ys[0] if shared_y else ys,
                        bands[0] if shared_band else bands,
                        func, threshold,
                    )
                    assert distances.shape == cells.shape == abandoned.shape == (pairs,)
                    for c, (x, y, band) in enumerate(operands):
                        assert_same_result(
                            BandedDTWResult(
                                distance=distances[c], path=None,
                                cells_filled=int(cells[c]), band=band,
                                abandoned=bool(abandoned[c]),
                            ),
                            banded_dtw(x, y, band, distance, return_path=False,
                                       abandon_threshold=threshold),
                        )


def padded(series) -> np.ndarray:
    """Column series of different lengths stacked, each padded on the
    right with its last value."""
    width = max(values.size for values in series)
    return np.stack([np.pad(values, (0, width - values.size), mode="edge")
                     for values in series])


@st.composite
def padded_inputs(draw):
    """The engine's layout: one query (or stacked rows) against column
    series of their own lengths, shorter and longer than the query, each
    under its own band or under one band when the lengths agree."""
    count = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=30))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=30),
                            min_size=count, max_size=count))
    shared_x = draw(st.booleans())
    xs = np.stack([draw(series_of(n)) for _ in range(1 if shared_x else count)])
    ys = [draw(series_of(m)) for m in lengths]
    if len(set(lengths)) == 1 and draw(st.booleans()):
        bands = random_band(draw, n, lengths[0])
    else:
        bands = np.stack([random_band(draw, n, m) for m in lengths])
    distance = draw(st.sampled_from(["absolute", "squared"]))
    return xs[0] if shared_x else xs, ys, bands, distance


def per_pair_results(xs, ys, bands, distance, threshold):
    return [
        banded_dtw(xs if xs.ndim == 1 else xs[c], y,
                   bands if bands.ndim == 2 else bands[c], distance,
                   return_path=False, abandon_threshold=threshold)
        for c, y in enumerate(ys)
    ]


def assert_batch_equals(batch, expected) -> None:
    distances, cells, abandoned = batch
    assert distances.shape == cells.shape == abandoned.shape == (len(expected),)
    for c, want in enumerate(expected):
        assert_same_result(
            BandedDTWResult(distance=distances[c], path=None,
                            cells_filled=int(cells[c]), band=want.band,
                            abandoned=bool(abandoned[c])),
            want,
        )


class TestPaddedColumnSeries:
    @given(inputs=padded_inputs())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_per_pair_scan(self, inputs):
        xs, ys, bands, distance = inputs
        func = get_pointwise_distance(distance)
        lengths = np.array([y.size for y in ys])
        exact = [r.distance for r in per_pair_results(xs, ys, bands, distance, None)]
        thresholds = {None, 0.0} | {
            t for d in exact for t in (d * 0.5, d, np.nextafter(d, np.inf))
        }
        for block_bytes in (banded._BLOCK_BYTES, 8, 600):
            with mock.patch.object(banded, "_BLOCK_BYTES", block_bytes):
                for threshold in sorted(thresholds, key=lambda t: -1 if t is None else t):
                    assert_batch_equals(
                        banded_dtw_batch(xs, padded(ys), bands, func, threshold,
                                         m=lengths),
                        per_pair_results(xs, ys, bands, distance, threshold),
                    )

    def test_threshold_that_compacts_the_batch(self):
        # Twelve candidates of 20-90 samples against a 60-sample query;
        # the third-best distance as threshold abandons at least half of
        # them, so the survivors are compacted and still read their own end.
        rng = np.random.default_rng(12)
        n = 60
        query = np.cumsum(rng.normal(size=n))
        lengths = [20, 90, 35, 60, 74, 41, 60, 83, 28, 66, 52, 47]
        ys = [np.cumsum(rng.normal(size=m)) for m in lengths]
        bands = np.stack([sakoe_chiba_band(n, m, 6) for m in lengths])
        exact = [r.distance for r in per_pair_results(query, ys, bands, "absolute", None)]
        threshold = sorted(exact)[2]
        for block_bytes in (banded._BLOCK_BYTES, 8):
            with mock.patch.object(banded, "_BLOCK_BYTES", block_bytes):
                batch = banded_dtw_batch(query, padded(ys), bands,
                                         get_pointwise_distance("absolute"),
                                         threshold, m=np.array(lengths))
                assert 2 * int(batch[2].sum()) >= len(lengths)
                assert not batch[2].all()
                assert_batch_equals(
                    batch, per_pair_results(query, ys, bands, "absolute", threshold)
                )

    @pytest.mark.parametrize("end", [7, 11])
    def test_band_that_misses_its_own_end_cell_raises(self, end):
        # Pair 1 has 10 columns; a band ending at column 7 or 11 (inside
        # the padded width of 12) misses its end cell (9, 9).
        rng = np.random.default_rng(2)
        n, lengths = 9, np.array([12, 10])
        ys = [rng.normal(size=m) for m in lengths]
        bands = np.stack([full_band(n, 12), full_band(n, 12)])
        bands[1, :, 1] = np.minimum(bands[1, :, 1], end)
        with pytest.raises(BandError):
            banded_dtw_batch(rng.normal(size=n), padded(ys), bands,
                             get_pointwise_distance("absolute"), m=lengths)

    def test_shared_pattern_calls_are_unchanged(self):
        # The stream's layout: stacked windows against one pattern; the
        # pattern's own length is the default column count.
        rng = np.random.default_rng(5)
        n, m = 24, 20
        windows = rng.normal(size=(5, n))
        pattern = rng.normal(size=m)
        bands = np.stack([sakoe_chiba_band(n, m, r) for r in (2, 3, 4, 5, 6)])
        func = get_pointwise_distance("absolute")
        for threshold in (None, 8.0):
            default = banded_dtw_batch(windows, pattern, bands, func, threshold)
            for explicit in (m, np.full(5, m)):
                given = banded_dtw_batch(windows, pattern, bands, func, threshold,
                                         m=explicit)
                for got, want in zip(given, default):
                    assert got.tobytes() == want.tobytes()
            assert_batch_equals(default, [
                banded_dtw(window, pattern, band, "absolute", return_path=False,
                           abandon_threshold=threshold)
                for window, band in zip(windows, bands)
            ])

    def test_column_counts_are_checked(self):
        func = get_pointwise_distance("absolute")
        ys = np.zeros((2, 6))
        bands = np.stack([full_band(4, 6), full_band(4, 6)])
        with pytest.raises(ValueError):
            banded_dtw_batch(np.zeros(4), ys, bands, func, m=np.array([6, 7]))
        with pytest.raises(ValueError):
            banded_dtw_batch(np.zeros(4), ys, bands, func, m=np.array([6, 6, 6]))


def test_full_band_scan_memory_does_not_grow_with_series_length():
    # A full band on long series: the scan may hold its O(m) row buffer and
    # one bounded block of costs and prefix sums, never an O(n * m) matrix
    # (32 MB here).
    n = m = 2000
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.normal(size=n))
    y = np.cumsum(rng.normal(size=m))
    band = full_band(n, m)
    row_buffers = 2 * (m + 1) * 8
    tracemalloc.start()
    try:
        result = banded_dtw(x, y, band, return_path=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.cells_filled == n * m
    assert peak - row_buffers < 2 * 1024 * 1024
