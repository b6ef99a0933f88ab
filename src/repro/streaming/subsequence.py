"""Online subsequence matchers: SPRING-style sDTW over unbounded streams.

Two complementary matchers monitor a stream for occurrences of a fixed
query pattern:

* :class:`SpringMatcher` — the SPRING algorithm (Sakurai et al., ICDE
  2007) adapted to this library's DTW substrate: a "star-padded" dynamic
  program whose virtual zeroth column lets a warp path start at *any*
  stream position, so one O(m)-per-tick column update tracks the best
  matching subsequence ending at the current tick over **all** possible
  start positions.  The column (and per-cell start bookkeeping) is carried
  across ticks — nothing is ever recomputed — and the non-overlap
  reporting discipline guarantees each reported match is the local optimum
  among all overlapping candidates.  Samples are consumed a block at a
  time, with the block's costs and prefix sums computed together.
* :class:`SlidingWindowMatcher` — fixed-length trailing windows scored
  under any of the paper's constraint families (Sections 3.3.1–3.3.3),
  a block of ticks at a time, guarded by the batch engine's cascading
  lower bounds (LB_Kim and LB_Keogh over a ``(windows, m)`` view of the
  block, LB_Yi from the pattern's side, then early-abandoning banded
  DTW).  The adaptive ``ac/aw``
  constraints draw their locally relevant bands from an
  :class:`IncrementalExtractor` feature snapshot, i.e. the streaming
  analogue of the paper's salient-feature alignment pipeline (Sections
  3.1–3.3) with extraction amortised across ticks exactly as Section 3.4
  prescribes.  A block's bands are built together, from the snapshots'
  stacked arrays (:func:`build_stream_bands`); each equals the
  per-window reference :func:`build_stream_band`.  Each band also yields
  a band-envelope bound from each side.  Under every constraint the
  surviving windows' DPs advance in lock-step
  (:func:`repro.dtw.banded.banded_dtw_batch`), each under its own band or
  all under the shared one; a lone survivor takes the per-pair scan.

Both matchers report :class:`StreamMatch` intervals in absolute stream
coordinates and keep :class:`StreamStats` work accounting compatible with
the paper's cell-based time-gain measure (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._validation import as_series, check_positive
from ..core.alignment import MatchedSides, build_alignment_bands, unite_reverse_band
from ..core.bands import (
    ConstraintSpec,
    ResolvedConstraint,
    build_constraint_band,
    resolve_constraint,
)
from ..core.config import MatchingConfig, SDTWConfig
from ..core.consistency import prune_inconsistent_pairs
from ..core.features import (
    FeatureSet,
    SalientFeature,
    extract_salient_features,
    shift_scopes,
)
from ..core.intervals import build_interval_partition
from ..core.matching import match_decisions, match_gates, match_salient_features
from ..dtw.banded import abandon_cutoff, banded_dtw, banded_dtw_batch, validate_band
from ..dtw.distances import PointwiseDistance, get_pointwise_distance
from ..dtw.lower_bounds import (
    bounds_hold_for,
    keogh_envelope,
    lb_band_envelope,
    lb_reverse_band_envelope,
    lb_yi_batch,
    range_extrema_table,
)
from ..exceptions import ValidationError
from .buffer import StreamBuffer
from .incremental import IncrementalExtractor


@dataclass(frozen=True)
class StreamMatch:
    """One reported occurrence of a pattern in a stream.

    ``start`` and ``end`` are inclusive absolute stream indices: the
    matched subsequence is ``stream[start .. end]``.
    """

    pattern: str
    stream: str
    start: int
    end: int
    distance: float

    @property
    def length(self) -> int:
        """Number of stream samples the match covers."""
        return self.end - self.start + 1

    def overlaps(self, other: "StreamMatch") -> bool:
        """True when the two match intervals share at least one sample."""
        return self.start <= other.end and other.start <= self.end


@dataclass
class StreamStats:
    """Per-pattern work accounting for stream monitoring.

    The counters mirror :class:`repro.engine.stats.EngineStats` so the
    streaming cascade can be read with the same cost model: ``ticks`` that
    were pruned by a lower bound contribute no DP cells, and
    ``cells_filled`` over ``total_cells`` is the paper's
    hardware-independent time-gain measure applied per tick instead of per
    stored series.  ``pruned_lb_keogh`` also counts the windows the
    pattern-side (reverse) bounds pruned: the reverse global bound under
    every constraint, and under an adaptive one the band-envelope bound
    and the reverse band envelope.  A window a reverse bound prunes might
    otherwise have completed its DP above the threshold, so those prunes
    move counts out of ``dp_runs`` as well as ``dp_abandoned``.
    """

    ticks: int = 0
    evaluated: int = 0
    pruned_lb_kim: int = 0
    pruned_lb_keogh: int = 0
    dp_runs: int = 0
    dp_abandoned: int = 0
    cells_filled: int = 0
    total_cells: int = 0
    matches: int = 0

    @property
    def pruned(self) -> int:
        """Ticks discarded by a lower bound before any DP work."""
        return self.pruned_lb_kim + self.pruned_lb_keogh

    @property
    def prune_rate(self) -> float:
        """Fraction of evaluated ticks eliminated by the bound cascade."""
        if self.evaluated == 0:
            return 0.0
        return self.pruned / float(self.evaluated)

    @property
    def cell_fraction(self) -> float:
        """Fraction of the naive per-tick grid work actually performed."""
        if self.total_cells == 0:
            return 0.0
        return self.cells_filled / float(self.total_cells)

    def rows(self) -> List[List[object]]:
        """Rows for a summary table (used by the CLI and benchmarks)."""
        return [
            ["ticks", self.ticks, ""],
            ["windows evaluated", self.evaluated, ""],
            ["pruned by LB_Kim", self.pruned_lb_kim, ""],
            ["pruned by LB_Keogh", self.pruned_lb_keogh, ""],
            ["DP abandoned early", self.dp_abandoned, ""],
            ["DP completed", self.dp_runs, ""],
            ["cells filled", self.cells_filled,
             f"{self.cell_fraction:.1%} of naive"],
            ["matches", self.matches, ""],
        ]


class MatchSuppressor:
    """Non-overlapping local-minima selection over a distance profile.

    Both the online sliding matcher and the offline reference scan feed
    their per-tick window distances through this policy, so "which of
    several overlapping sub-threshold windows is *the* match" is defined
    in exactly one place: among overlapping qualifying windows the one
    with the smallest distance wins, and a candidate is emitted as soon as
    no later overlapping window can beat it.
    """

    def __init__(self, window_length: int, threshold: float) -> None:
        self.window_length = int(window_length)
        self.threshold = float(threshold)
        self._best_distance = np.inf
        self._best_end = -1

    def observe(self, tick: int, distance: float) -> Optional[Tuple[int, int, float]]:
        """Feed the window distance at *tick*; maybe emit a settled match.

        Pruned ticks (lower bound above threshold) should be fed ``inf``:
        the bound proves they cannot qualify, but time still advances the
        non-overlap bookkeeping.
        """
        emitted = None
        if self._best_end >= 0 and tick - self._best_end >= self.window_length:
            emitted = self.flush()
        if distance <= self.threshold:
            if self._best_end < 0 or distance < self._best_distance:
                self._best_distance = float(distance)
                self._best_end = int(tick)
        return emitted

    def flush(self) -> Optional[Tuple[int, int, float]]:
        """Emit the pending candidate (stream end / teardown)."""
        if self._best_end < 0:
            return None
        start = self._best_end - self.window_length + 1
        result = (start, self._best_end, self._best_distance)
        self._best_distance = np.inf
        self._best_end = -1
        return result


class SpringMatcher:
    """SPRING-style streaming subsequence DTW against one pattern.

    Parameters
    ----------
    pattern:
        The query pattern ``Y`` (length m).
    threshold:
        Matching threshold ε: subsequences with DTW distance ``<= ε`` are
        match candidates.
    distance:
        Pointwise element distance (default absolute difference, the
        paper's choice).
    name:
        Label stamped on reported matches.

    Notes
    -----
    The carried state is one DP column ``d[i] = min over start s of
    DTW(Y[:i+1], X[s..t])`` plus the per-cell optimal start ``s[i]``; both
    are updated with O(m) vectorised work per tick using the same
    prefix-sum formulation as the batch banded kernel
    (:mod:`repro.dtw.banded`), so the matcher never revisits past stream
    samples.  Reporting follows SPRING's discipline: a candidate is
    emitted only when no still-open warping path could produce an
    overlapping match with a smaller distance, which yields
    non-overlapping, locally optimal match intervals.

    Samples arrive a block at a time (:meth:`update_block`; :meth:`update`
    is a block of one).  A block's pointwise costs and their prefix sums
    are computed in one call each, and the tick loop then runs a fixed
    sequence of in-place array operations on two alternating columns.
    Each column carries a leading star cell (distance 0, start the
    current tick), so a tick reads its diagonal and vertical predecessors
    as two views of one column.  Every element goes through the same
    arithmetic whatever the block size, so the columns and matches do not
    depend on how the stream is cut.
    """

    def __init__(
        self,
        pattern: Union[Sequence[float], np.ndarray],
        threshold: float,
        *,
        distance: Union[str, PointwiseDistance, None] = None,
        name: str = "pattern",
    ) -> None:
        self.pattern = as_series(pattern, "pattern")
        self.threshold = check_positive(float(threshold), "threshold")
        self.name = str(name)
        self._dist = get_pointwise_distance(distance)
        m = self.pattern.size
        self._m = m
        # Double-buffered columns: a tick reads one and writes the other.
        # A distance column is [star, d]; a start column is [unused, star,
        # s], so the start of row i's diagonal predecessor sits in slot
        # i + 1 and that of its vertical one in slot i + 2.  _d and _s view
        # the current column's d and s.
        columns = np.full((2, m + 1), np.inf)
        columns[:, 0] = 0.0
        starts = np.zeros((2, m + 2), dtype=np.intp)
        self._views = tuple(
            (columns[b, :-1], columns[b, 1:], starts[b], starts[b, 2:]) for b in (0, 1)
        )
        self._current = 0
        self._d, self._s = columns[0, 1:], starts[0, 2:]
        # Per-tick scratch; running[0] is the scan's leading +inf, so
        # running[:-1] is each row's previous running minimum.
        self._slots = np.arange(2, m + 2)
        self._take = np.empty(m, dtype=bool)
        self._entry = np.empty(m)
        self._offsets = np.empty(m)
        running = np.empty(m + 1)
        running[0] = np.inf
        self._running = (running[:-1], running[1:])
        self._gather = np.empty(m, dtype=np.intp)
        self._source = np.empty(m, dtype=np.intp)
        self._best_distance = np.inf
        self._best_start = -1
        self._best_end = -1
        self._ticks = 0
        self.stats = StreamStats()

    @property
    def window_length(self) -> int:
        """Pattern length (the matcher needs no stream window at all)."""
        return self._m

    def update(self, value: float) -> List[StreamMatch]:
        """Consume the next stream sample; return matches settled this tick."""
        return [match for _, match in self.update_block([value])]

    def update_block(
        self, values: Union[Sequence[float], np.ndarray]
    ) -> List[Tuple[int, StreamMatch]]:
        """Consume the next samples in order; return the settled matches.

        Each match comes with the tick at which it settled, counted from
        the first sample this matcher consumed.  The block is accepted or
        rejected whole: a non-finite sample raises
        :class:`~repro.exceptions.ValidationError` before any is consumed.
        """
        block = np.asarray(values, dtype=float)
        if block.ndim != 1:
            raise ValidationError(
                f"stream block must be one-dimensional, got shape {block.shape}"
            )
        if not np.isfinite(block).all():
            # One NaN would permanently poison the carried column.
            bad = float(block[~np.isfinite(block)][0])
            raise ValidationError(f"stream sample must be finite, got {bad}")
        count = block.size
        if not count:
            return []
        m = self._m
        first = self._ticks
        self._ticks += count
        stats = self.stats
        stats.ticks += count
        stats.evaluated += count
        stats.cells_filled += m * count
        # Tick t of the block adds m * (t + 1) naive cells.
        stats.total_cells += m * (count * first + count * (count + 1) // 2)

        # Row k holds tick k's cost prefix sums behind a zero: its first m
        # entries are the scan's shifted sums, its last m the sums.
        prefix = np.zeros((count, m + 1))
        shifted, sums = prefix[:, :-1], prefix[:, 1:]
        np.add.accumulate(self._dist(block[:, np.newaxis], self.pattern), axis=1,
                          out=sums)

        views = self._views
        slots, take, entry, offsets = self._slots, self._take, self._entry, self._offsets
        previous, running = self._running
        gather, source = self._gather, self._source
        threshold = self.threshold
        current = self._current
        settled: List[Tuple[int, StreamMatch]] = []
        for k in range(count):
            t = first + k
            d_diag, d_up, s_read, _ = views[current]
            current = 1 - current
            _, d_new, _, s_new = views[current]
            s_read[1] = t
            # Entry values per row: the better of the diagonal predecessor
            # (whose row 0 is the star cell) and the vertical one, ties to
            # the diagonal, and the slot of the entry's start.
            np.less_equal(d_diag, d_up, out=take)
            np.minimum(d_diag, d_up, out=entry)
            np.subtract(slots, take, out=gather)
            # In-column scan d[i] = cost[i] + min(entry[i], d[i-1]) via the
            # prefix-sum closed form (see _banded_dtw_distance_only), plus a
            # first-achiever argmin to propagate the start bookkeeping: the
            # slots never decrease along the column, so the running maximum
            # of the improving rows' slots is the last improving row's slot.
            np.subtract(entry, shifted[k], out=offsets)
            np.minimum.accumulate(offsets, out=running)
            np.add(sums[k], running, out=d_new)
            np.less(offsets, previous, out=take)
            np.multiply(take, gather, out=gather)
            np.maximum.accumulate(gather, out=source)
            s_read.take(source, out=s_new)

            if self._best_distance <= threshold:
                # Report once no open path can extend into a better
                # overlapping match (SPRING's disjoint-match condition).
                blocked = (d_new < self._best_distance) & (s_new <= self._best_end)
                if not blocked.any():
                    match = self._emit()
                    settled.append((t, match))
                    # Invalidate cells belonging to the reported region so
                    # no overlapping match can be reported again.
                    d_new[s_new <= match.end] = np.inf
            last = float(d_new[-1])
            if last <= threshold and last < self._best_distance:
                self._best_distance = last
                self._best_start = int(s_new[-1])
                self._best_end = t
        self._current = current
        _, self._d, _, self._s = views[current]
        return settled

    def _emit(self) -> StreamMatch:
        """The pending candidate as a match; the candidate is cleared."""
        self.stats.matches += 1
        match = StreamMatch(
            pattern=self.name,
            stream="",
            start=self._best_start,
            end=self._best_end,
            distance=self._best_distance,
        )
        self._best_distance = np.inf
        self._best_start = -1
        self._best_end = -1
        return match

    def finalize(self) -> List[StreamMatch]:
        """Flush the pending candidate at end of stream (if any)."""
        if self._best_distance <= self.threshold:
            match = self._emit()
            self._d[self._s <= match.end] = np.inf
            return [match]
        return []


def shift_snapshot_features(
    features: Sequence[SalientFeature],
    shift: int,
    window_length: int,
) -> FeatureSet:
    """Re-express snapshot features in the coordinates of a newer window.

    The extractor's snapshot window starts *shift* ticks before the
    current one; features that slid off the front are dropped and scopes
    are clipped to the new window extent, mirroring what batch extraction
    clips at the series boundary
    (:meth:`~repro.core.features.FeatureSet.shifted`).  This is the
    per-window reference path; the online matcher shifts no feature
    (:func:`build_stream_bands`).
    """
    return FeatureSet.of(features).shifted(shift, window_length)


def build_stream_band(
    spec: Union[ConstraintSpec, ResolvedConstraint],
    window_features: Sequence[SalientFeature],
    pattern_features: Sequence[SalientFeature],
    window_length: int,
    pattern_length: int,
    config: SDTWConfig,
) -> np.ndarray:
    """Locally relevant band for (window, pattern) from feature snapshots.

    This is the streaming counterpart of :meth:`repro.core.sdtw.SDTW.build_band`:
    matching + inconsistency pruning + interval partitioning (Sections
    3.2–3.3) run on pre-extracted features, so the only per-tick cost is
    the alignment itself.  It is the per-window reference: the offline
    scan builds each window's band with it, and the online matcher's
    :func:`build_stream_bands` must equal it band for band.
    """
    matches = match_salient_features(
        window_features, pattern_features, config.matching
    )
    consistent = prune_inconsistent_pairs(matches, config.matching)
    partition = build_interval_partition(consistent, window_length, pattern_length)
    band = build_constraint_band(
        window_length, pattern_length, spec, partition, config
    )
    if config.symmetric_band:
        band = unite_reverse_band(
            band, spec, window_features, pattern_features,
            window_length, pattern_length, config,
        )
    return band


def build_stream_bands(
    spec: Union[ConstraintSpec, ResolvedConstraint],
    snapshots: Sequence[FeatureSet],
    shifts: Sequence[int],
    pattern_features: FeatureSet,
    m: int,
    config: SDTWConfig,
) -> np.ndarray:
    """The adaptive bands of many stream windows, as one ``(W, m, 2)`` array.

    Window ``w`` has the pattern's length *m* and starts ``shifts[w]``
    samples after its extractor snapshot ``snapshots[w]`` does (windows of
    one block share snapshots); its band equals :func:`build_stream_band`
    of ``shift_snapshot_features(snapshots[w], shifts[w], m)``, bit for
    bit.  It gets there without a per-window object:

    1. Each window's match decisions are made on exactly its rows of
       the snapshot's stacked arrays
       (:func:`~repro.core.matching.match_decisions`); consecutive
       windows that select the same rows share them.
    2. Each pair's window feature is read from the snapshots' stacked
       positions and shifted scopes
       (:func:`~repro.core.features.shift_scopes`).
    3. The engine's alignment stage takes it from there
       (:func:`~repro.core.alignment.build_alignment_bands`): all pairs
       are scored together, each window commits its pairs on plain
       floats, and the block's partitions are banded and validated in
       one pass.

    With ``symmetric_band`` on, each window's pattern-driven band is
    still built per window and united with its band
    (:func:`~repro.core.alignment.unite_reverse_band`).
    """
    pattern = FeatureSet.of(pattern_features)
    shift_array = np.asarray(shifts, dtype=np.intp)
    sources, rows, columns, distances, sizes = _window_matches(
        snapshots, shift_array, pattern, m, config.matching
    )
    # Each pair's window feature, in its window's coordinates; a window
    # at its snapshot's start reads the snapshot itself.
    raw = MatchedSides.of(sources, rows)
    shift = shift_array[np.repeat(np.arange(len(shifts)), sizes)]
    start_x, end_x = shift_scopes(raw.starts, raw.ends, shift, float(m - 1))
    window = MatchedSides(
        np.where(shift > 0, start_x, raw.starts),
        np.where(shift > 0, end_x, raw.ends),
        raw.centers - shift,
        raw.amplitudes,
    )
    bands = build_alignment_bands(
        spec, sizes, np.asarray(distances, dtype=float), window,
        MatchedSides.of([pattern], columns), m, m, config,
    )
    if config.symmetric_band:
        for index, (snapshot, shift) in enumerate(zip(snapshots, shifts)):
            bands[index] = unite_reverse_band(
                bands[index], spec, snapshot.shifted(shift, m), pattern,
                m, m, config,
            )
    return bands


def _window_matches(
    snapshots: Sequence[FeatureSet],
    shifts: np.ndarray,
    pattern: FeatureSet,
    m: int,
    matching: MatchingConfig,
) -> Tuple[List[FeatureSet], np.ndarray, np.ndarray, List[float], List[int]]:
    """Step 1 of :func:`build_stream_bands`: every window's matched pairs.

    Returns the snapshots of the windows' runs (consecutive windows
    reading one snapshot), and per pair, window after window: its row in
    the concatenation of those snapshots, its pattern row and its
    descriptor distance; then each window's pair count.  A window's rows
    are the features inside it, all of them at shift 0 (where the window
    reads the snapshot itself); consecutive windows of a run often select
    the same rows and share their decisions.  The amplitude and scale
    gates are built once per snapshot (:func:`match_gates`) and each
    selection takes its rows of them; the descriptor distances are not,
    because a matmul over a subset of rows is not bit-equal to those rows
    of the whole product.
    """
    limit = float(m - 1)
    sources: List[FeatureSet] = []
    rows_of_pairs: List[int] = []
    pattern_rows: List[int] = []
    distances: List[float] = []
    sizes: List[int] = []
    offset = begin = 0
    while begin < len(snapshots):
        snapshot = snapshots[begin]
        end = begin + 1
        while end < len(snapshots) and snapshots[end] is snapshot:
            end += 1
        run = shifts[begin:end, None]
        moved = snapshot.positions - run
        inside = ((moved >= 0.0) & (moved <= limit)) | (run == 0)
        repeats = [False] + (inside[1:] == inside[:-1]).all(axis=1).tolist()
        gates = match_gates(snapshot, pattern, matching)
        for index, repeat in enumerate(repeats):
            if not repeat:
                rows = np.flatnonzero(inside[index]).tolist()
                chosen, columns, found = match_decisions(
                    snapshot, pattern, matching, rows, gates
                )
                chosen = [offset + rows[i] for i in chosen]
            rows_of_pairs += chosen
            pattern_rows += columns
            distances += found
            sizes.append(len(chosen))
        sources.append(snapshot)
        offset += len(snapshot)
        begin = end
    return (
        sources,
        np.asarray(rows_of_pairs, dtype=np.intp),
        np.asarray(pattern_rows, dtype=np.intp),
        distances,
        sizes,
    )


class SlidingWindowMatcher:
    """Cascaded constrained-DTW monitoring of fixed-length trailing windows.

    Every tick the trailing ``m`` samples (m = pattern length) form a
    candidate window.  The matcher scores a block of ticks at once
    (:meth:`score_block`): the block's windows are one ``(windows, m)``
    view of the buffer and go through the engine's cascade together —
    LB_Kim from each window's endpoints and extrema, LB_Keogh against the
    pattern's precomputed envelope, LB_Yi of the pattern against each
    window's extrema (the reverse global bound), for adaptive constraints
    the band-envelope bound of each window's own band and then its
    reverse (the pattern's columns against the window's rows that reach
    them), then early-abandoning banded DTW under the configured
    constraint family.  A block whose windows the bounds all prune makes
    no DP call.  The surviving
    windows' DPs run in one lock-step call
    (:func:`repro.dtw.banded.banded_dtw_batch`): under a shared band
    (``fc,fw``, ``full``, ``itakura``), validated once at construction,
    as under per-window adaptive bands.  A block with one survivor runs
    the per-pair scan (:func:`repro.dtw.banded.banded_dtw`) instead,
    which is faster for a single pair.  Both give the same distances,
    cells and abandonment as the per-window scan.  The resulting
    distance profile goes through the shared non-overlap suppression
    policy in tick order.  LB_Kim, LB_Keogh and the reverse global bound
    lower-bound the *full* DTW and therefore every constrained DTW (the
    same admissibility argument as :class:`repro.engine.DistanceEngine`),
    and both band-envelope bounds lower-bound the DP over that band, so
    pruning never changes which matches are reported.  The reverse bounds
    sum in another order than the DP and prune at
    ``abandon_cutoff(threshold)``; all the LB_Keogh-family prunes count in
    ``StreamStats.pruned_lb_keogh``.

    ``prune`` turns every bound of the cascade on or off together.  The
    bounds hold for the absolute-difference pointwise distance only, so
    under any other the matcher runs every window's DP whatever ``prune``
    says.  ``early_abandon`` stops a DP once a whole row exceeds the
    threshold.  Neither changes which matches are reported.
    """

    def __init__(
        self,
        pattern: Union[Sequence[float], np.ndarray],
        threshold: float,
        *,
        constraint: Union[str, ConstraintSpec, ResolvedConstraint] = "fc,fw",
        config: Optional[SDTWConfig] = None,
        name: str = "pattern",
        prune: bool = True,
        early_abandon: bool = True,
        extractor_hop: Optional[int] = None,
        extractor: Optional[IncrementalExtractor] = None,
        itakura_max_slope: float = 2.0,
    ) -> None:
        self.pattern = as_series(pattern, "pattern")
        self.threshold = check_positive(float(threshold), "threshold")
        self.config = config if config is not None else SDTWConfig()
        self.name = str(name)
        m = self.pattern.size
        self._m = m
        self._func = get_pointwise_distance(self.config.pointwise_distance)
        self.prune = bool(prune) and bounds_hold_for(self.config.pointwise_distance)
        self.early_abandon = bool(early_abandon)

        self._resolved = resolve_constraint(constraint)
        self.constraint = self._resolved.label
        self._shared_band = self._resolved.band(m, m, self.config, itakura_max_slope)
        self._extractor: Optional[IncrementalExtractor] = None
        self._pattern_features = FeatureSet(())
        if self._shared_band is not None:
            # Validated once: the lock-step kernel takes validated bands.
            self._shared_band = validate_band(self._shared_band, m, m, repair=True)
        else:
            if extractor is None:
                extractor = IncrementalExtractor(m, self.config, hop=extractor_hop)
            elif extractor.window_length != m:
                # A shared extractor (e.g. one per stream for all patterns
                # of this length) must keep windows of the pattern's length.
                raise ValidationError(
                    f"shared extractor maintains windows of "
                    f"{extractor.window_length} samples but the pattern "
                    f"has {m}"
                )
            self._extractor = extractor
            self._pattern_features = extract_salient_features(
                self.pattern, self.config
            )

        # Pattern-side precomputation (the paper's one-time cost): LB_Kim
        # endpoints/extrema, the LB_Keogh envelope and, for per-window
        # bands, the range extrema of the band-envelope bound.
        self._y_first = float(self.pattern[0])
        self._y_last = float(self.pattern[-1])
        self._y_min = float(self.pattern.min())
        self._y_max = float(self.pattern.max())
        radius = self._resolved.envelope_radius(m, self.config)
        self._envelope = (
            keogh_envelope(self.pattern, radius) if radius is not None else None
        )
        self._range_table = (
            range_extrema_table(self.pattern)
            if self._shared_band is None and self.prune
            else None
        )

        self._suppressor = MatchSuppressor(m, self.threshold)
        self.stats = StreamStats()

    @property
    def window_length(self) -> int:
        """Length of the trailing windows being scored (= pattern length)."""
        return self._m

    @property
    def extractor(self) -> Optional[IncrementalExtractor]:
        """The incremental feature extractor (adaptive constraints only)."""
        return self._extractor

    # ------------------------------------------------------------------ #
    # Block cascade
    # ------------------------------------------------------------------ #
    def score_block(
        self,
        buffer: StreamBuffer,
        count: int,
        snapshots: Optional[Sequence[Tuple[FeatureSet, int]]] = None,
    ) -> List[Tuple[int, StreamMatch]]:
        """Score the windows ending at the buffer's newest *count* samples.

        The caller appends the block to *buffer* first; the earliest of
        its windows must still be retained.  Adaptive constraints build
        the bands of the windows that survive LB_Keogh together
        (:func:`build_stream_bands`) from *snapshots*, the extractor's
        ``(features, snapshot_start)`` at each of the block's full-window
        ticks as :meth:`IncrementalExtractor.observe_block` returns them;
        without them the matcher drives its own extractor over the block.
        Returns the matches settled in the block, each with the tick at
        which it settled.
        """
        m = self._m
        if snapshots is None and self._extractor is not None:
            snapshots = self._extractor.observe_block(buffer, count)
        self.stats.ticks += count
        first = max(buffer.total - count, m - 1)
        if first >= buffer.total:
            return []
        windows = sliding_window_view(buffer.view(buffer.total - first + m - 1), m)
        self.stats.evaluated += len(windows)
        self.stats.total_cells += len(windows) * m * m
        distances = self._block_distances(windows, first, snapshots)
        settled: List[Tuple[int, StreamMatch]] = []
        for tick, distance in enumerate(distances.tolist(), first):
            emitted = self._suppressor.observe(tick, distance)
            if emitted is not None:
                settled.append((tick, self._wrap(emitted)))
        return settled

    def _block_distances(
        self,
        windows: np.ndarray,
        first: int,
        snapshots: Optional[Sequence[Tuple[FeatureSet, int]]],
    ) -> np.ndarray:
        """Each window's distance, ``inf`` where a bound pruned it or the DP
        abandoned; window ``k`` ends at tick ``first + k``."""
        stats = self.stats
        threshold = self.threshold
        # The reverse bounds sum in another order than the DP, so they get
        # the same rounding slack as abandonment.
        cutoff = abandon_cutoff(threshold)
        distances = np.full(len(windows), np.inf)
        alive = np.arange(len(windows))
        if self.prune:
            highs = windows.max(axis=1)
            lows = windows.min(axis=1)
            bound = np.maximum(
                np.maximum(
                    np.abs(windows[:, 0] - self._y_first),
                    np.abs(windows[:, -1] - self._y_last),
                ),
                np.maximum(np.abs(highs - self._y_max), np.abs(lows - self._y_min)),
            )
            alive = np.flatnonzero(bound <= threshold)
            stats.pruned_lb_kim += len(windows) - alive.size
            if alive.size:
                candidates = windows[alive]
                if self._envelope is not None:
                    # lb_keogh's arithmetic, one row per window.
                    upper, lower = self._envelope
                    above = np.where(candidates > upper, candidates - upper, 0.0)
                    below = np.where(candidates < lower, lower - candidates, 0.0)
                    bound = np.sum(above + below, axis=1)
                else:
                    # Global envelope: admissible against the full DTW and
                    # hence against every constrained DTW.
                    above = np.maximum(candidates - self._y_max, 0.0)
                    below = np.maximum(self._y_min - candidates, 0.0)
                    bound = above.sum(axis=1) + below.sum(axis=1)
                passed = bound <= threshold
                stats.pruned_lb_keogh += alive.size - int(passed.sum())
                alive = alive[passed]
                if alive.size:
                    # The reverse global bound: the pattern's mass outside each
                    # window's range, which also bounds the full DTW.
                    bound = lb_yi_batch(self.pattern, lows[alive], highs[alive])
                    passed = bound <= cutoff
                    stats.pruned_lb_keogh += alive.size - int(passed.sum())
                    alive = alive[passed]
        abandon = threshold if self.early_abandon else None
        if not alive.size:
            return distances
        if self._shared_band is not None:
            bands = self._shared_band
        else:
            picked = [snapshots[index] for index in alive.tolist()]
            bands = build_stream_bands(
                self._resolved,
                [features for features, _ in picked],
                [first + index - self._m + 1 - start
                 for index, (_, start) in zip(alive.tolist(), picked)],
                self._pattern_features, self._m, self.config,
            )
            if self._range_table is not None:
                candidates = windows[alive]
                bound = lb_band_envelope(candidates, bands, self._range_table)
                passed = bound <= cutoff
                # The reverse band envelope, over the windows the forward
                # one kept.
                if passed.any():
                    kept = np.flatnonzero(passed)
                    passed[kept] = lb_reverse_band_envelope(
                        candidates[kept], bands[kept], self.pattern
                    ) <= cutoff
                stats.pruned_lb_keogh += alive.size - int(passed.sum())
                alive, bands = alive[passed], bands[passed]
                if not alive.size:
                    return distances
        if alive.size == 1:
            # A lone survivor takes the per-pair scan: at one pair it beats
            # the lock-step kernel, by 1.5-1.7x under a threshold.
            result = banded_dtw(
                windows[alive[0]], self.pattern, bands if bands.ndim == 2 else bands[0],
                self._func, return_path=False, abandon_threshold=abandon,
            )
            found = np.array([result.distance])
            cells = np.array([result.cells_filled])
            abandoned = np.array([result.abandoned])
        else:
            found, cells, abandoned = banded_dtw_batch(
                windows[alive], self.pattern, bands, self._func, abandon
            )
        stats.cells_filled += int(cells.sum())
        stats.dp_abandoned += int(abandoned.sum())
        stats.dp_runs += alive.size - int(abandoned.sum())
        distances[alive] = found
        return distances

    def update(self, buffer: StreamBuffer) -> List[StreamMatch]:
        """Score the window ending at the buffer's newest sample.

        The caller appends the sample to *buffer* first; this is a block
        of one tick (:meth:`score_block`).  Returns matches settled this
        tick.
        """
        return [match for _, match in self.score_block(buffer, 1)]

    def _wrap(self, emitted: Tuple[int, int, float]) -> StreamMatch:
        start, end, distance = emitted
        self.stats.matches += 1
        return StreamMatch(
            pattern=self.name, stream="", start=start, end=end, distance=distance
        )

    def finalize(self) -> List[StreamMatch]:
        """Flush the pending suppressed candidate at end of stream."""
        emitted = self._suppressor.flush()
        return [self._wrap(emitted)] if emitted is not None else []
