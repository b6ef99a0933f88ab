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
  among all overlapping candidates.
* :class:`SlidingWindowMatcher` — fixed-length trailing windows scored
  under any of the paper's constraint families (Sections 3.3.1–3.3.3),
  a block of ticks at a time, guarded by the batch engine's cascading
  lower bounds (LB_Kim and LB_Keogh over a ``(windows, m)`` view of the
  block, then early-abandoning banded DTW).  The adaptive ``ac/aw``
  constraints draw their locally relevant bands from an
  :class:`IncrementalExtractor` feature snapshot, i.e. the streaming
  analogue of the paper's salient-feature alignment pipeline (Sections
  3.1–3.3) with extraction amortised across ticks exactly as Section 3.4
  prescribes.  A block's bands are built together, from the snapshots'
  stacked arrays (:func:`build_stream_bands`); each equals the
  per-window reference :func:`build_stream_band`.  Each band also yields
  a band-envelope bound.  Under every constraint the surviving windows'
  DPs advance in lock-step (:func:`repro.dtw.banded.banded_dtw_batch`),
  each under its own band or all under the shared one; a lone survivor
  takes the per-pair scan.

Both matchers report :class:`StreamMatch` intervals in absolute stream
coordinates and keep :class:`StreamStats` work accounting compatible with
the paper's cell-based time-gain measure (Section 4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._validation import as_series, check_positive
from ..core.bands import (
    ConstraintSpec,
    build_constraint_band,
    build_constraint_bands,
    build_symmetric_band,
    parse_constraint_spec,
)
from ..core.config import MatchingConfig, SDTWConfig
from ..core.consistency import (
    all_boundaries,
    combined_scores,
    commit_consistent,
    prune_inconsistent_pairs,
)
from ..core.features import (
    FeatureSet,
    SalientFeature,
    extract_salient_features,
    shift_scopes,
)
from ..core.intervals import boundary_cuts, build_interval_partition, stack_partitions
from ..core.matching import match_decisions, match_gates, match_salient_features
from ..dtw.banded import abandon_cutoff, banded_dtw, banded_dtw_batch, validate_band
from ..dtw.constraints import full_band, itakura_band, sakoe_chiba_band_fraction
from ..dtw.distances import PointwiseDistance, get_pointwise_distance
from ..dtw.lower_bounds import keogh_envelope, lb_band_envelope, range_extrema_table
from ..exceptions import ValidationError
from .buffer import StreamBuffer
from .incremental import IncrementalExtractor

# Pointwise distances the LB_Kim / LB_Keogh derivations hold for (same
# set as the batch engine).
_BOUNDABLE_DISTANCES = ("absolute", "manhattan")


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
    stored series.  Under an adaptive constraint ``pruned_lb_keogh`` also
    counts the windows the band-envelope bound pruned.
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
        self._indices = np.arange(m)
        self._d = np.full(m, np.inf)
        self._s = np.zeros(m, dtype=int)
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
        value = float(value)
        if not math.isfinite(value):
            # One NaN would permanently poison the carried column.
            raise ValidationError(f"stream sample must be finite, got {value}")
        t = self._ticks
        self._ticks += 1
        m = self._m
        stats = self.stats
        stats.ticks += 1
        stats.evaluated += 1
        stats.cells_filled += m
        stats.total_cells += m * (t + 1)

        cost = self._dist(float(value), self.pattern)
        d_prev = self._d
        s_prev = self._s
        # Entry values per row: the better of the diagonal predecessor
        # (d_prev[i-1]) and the vertical predecessor (d_prev[i]); row 0's
        # diagonal is the virtual star-padding cell (distance 0, start t).
        diag = np.empty(m)
        diag[0] = 0.0
        diag[1:] = d_prev[:-1]
        diag_s = np.empty(m, dtype=int)
        diag_s[0] = t
        diag_s[1:] = s_prev[:-1]
        take_diag = diag <= d_prev
        entry = np.where(take_diag, diag, d_prev)
        entry_s = np.where(take_diag, diag_s, s_prev)
        # In-column scan d[i] = cost[i] + min(entry[i], d[i-1]) via the
        # prefix-sum closed form (see _banded_dtw_distance_only), plus a
        # first-achiever argmin to propagate the start bookkeeping.
        prefix = np.cumsum(cost)
        shifted = np.empty(m)
        shifted[0] = 0.0
        shifted[1:] = prefix[:-1]
        offsets = entry - shifted
        running = np.minimum.accumulate(offsets)
        d_new = prefix + running
        previous_running = np.empty(m)
        previous_running[0] = np.inf
        previous_running[1:] = running[:-1]
        improved = offsets < previous_running
        source = np.maximum.accumulate(np.where(improved, self._indices, -1))
        s_new = entry_s[source]

        matches: List[StreamMatch] = []
        if self._best_distance <= self.threshold:
            # Report once no open path can extend into a better
            # overlapping match (SPRING's disjoint-match condition).
            blocked = (d_new < self._best_distance) & (s_new <= self._best_end)
            if not blocked.any():
                matches.append(self._emit())
                self._best_distance = np.inf
                self._best_start = -1
                self._best_end = -1
        if matches:
            # Invalidate cells belonging to the reported region so no
            # overlapping match can be reported again.
            reported = matches[-1]
            d_new = np.where(s_new <= reported.end, np.inf, d_new)
        if d_new[m - 1] <= self.threshold and d_new[m - 1] < self._best_distance:
            self._best_distance = float(d_new[m - 1])
            self._best_start = int(s_new[m - 1])
            self._best_end = t
        self._d = d_new
        self._s = s_new
        return matches

    def _emit(self) -> StreamMatch:
        self.stats.matches += 1
        return StreamMatch(
            pattern=self.name,
            stream="",
            start=self._best_start,
            end=self._best_end,
            distance=self._best_distance,
        )

    def finalize(self) -> List[StreamMatch]:
        """Flush the pending candidate at end of stream (if any)."""
        if self._best_distance <= self.threshold:
            match = self._emit()
            self._best_distance = np.inf
            self._best_start = -1
            self._best_end = -1
            self._d = np.where(self._s <= match.end, np.inf, self._d)
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
    spec: ConstraintSpec,
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
        band = _symmetric(
            band, spec, window_features, pattern_features,
            window_length, pattern_length, config,
        )
    return band


def _symmetric(
    band: np.ndarray,
    spec: ConstraintSpec,
    window_features: Sequence[SalientFeature],
    pattern_features: Sequence[SalientFeature],
    window_length: int,
    pattern_length: int,
    config: SDTWConfig,
) -> np.ndarray:
    """*band* united with the pattern-driven band (``symmetric_band``)."""
    reverse_matches = match_salient_features(
        pattern_features, window_features, config.matching
    )
    reverse_consistent = prune_inconsistent_pairs(reverse_matches, config.matching)
    reverse_partition = build_interval_partition(
        reverse_consistent, pattern_length, window_length
    )
    reverse_band = build_constraint_band(
        pattern_length, window_length, spec, reverse_partition, config
    )
    return build_symmetric_band(band, reverse_band, window_length, pattern_length)


def build_stream_bands(
    spec: ConstraintSpec,
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
    2. The matched pairs of all windows are scored together
       (:func:`~repro.core.consistency.combined_scores`) from the
       snapshots' stacked positions and shifted scopes
       (:func:`~repro.core.features.shift_scopes`).
    3. Each window commits its pairs on plain floats
       (:func:`~repro.core.consistency.commit_consistent`).
    4. The committed boundaries become cuts
       (:func:`~repro.core.intervals.boundary_cuts`), and the block's
       partitions are banded and validated in one pass
       (:func:`~repro.core.bands.build_constraint_bands`).

    With ``symmetric_band`` on, each window's pattern-driven band is
    still built per window and united with its band.
    """
    pattern = FeatureSet.of(pattern_features)
    shift_array = np.asarray(shifts, dtype=np.intp)
    sources, rows, columns, distances, sizes = _window_matches(
        snapshots, shift_array, pattern, m, config.matching
    )
    cut_counts = [0] * len(shifts)
    committed_x: List[float] = []
    committed_y: List[float] = []
    if distances:
        limit = float(m - 1)
        window = np.repeat(np.arange(len(shifts)), sizes)
        shift = shift_array[window]
        raw_start = np.concatenate([s.scope_starts for s in sources])[rows]
        raw_end = np.concatenate([s.scope_ends for s in sources])[rows]
        start_x, end_x = shift_scopes(raw_start, raw_end, shift, limit)
        # A window at its snapshot's start reads the snapshot itself.
        start_x = np.where(shift > 0, start_x, raw_start)
        end_x = np.where(shift > 0, end_x, raw_end)
        center_x = np.concatenate([s.positions for s in sources])[rows] - shift
        start_y = pattern.scope_starts[columns]
        end_y = pattern.scope_ends[columns]
        # 2. Each window's pairs in match order (by position), scored.
        order = np.lexsort((center_x, window))
        sizes_array = np.asarray(sizes)
        groups = (np.cumsum(sizes_array) - sizes_array)[sizes_array > 0]
        _, _, combined = combined_scores(
            np.asarray(distances)[order],
            (end_x - start_x)[order],
            (end_y - start_y)[order],
            np.abs(center_x - pattern.positions[columns])[order],
            np.concatenate([s.mean_amplitudes for s in sources])[rows][order],
            pattern.mean_amplitudes[columns][order],
            groups,
        )
        # 3. Commit order: best combined score first, ties in match order.
        commit = order[np.lexsort((-combined, window[order]))]
        bounds = list(zip(
            start_x[commit].tolist(), end_x[commit].tolist(),
            start_y[commit].tolist(), end_y[commit].tolist(),
        ))
        first = 0
        for index, size in enumerate(sizes):
            if not size:
                continue
            pairs = bounds[first: first + size]
            first += size
            if config.matching.prune_inconsistencies:
                _, boundaries_x, boundaries_y = commit_consistent(pairs)
            else:
                boundaries_x, boundaries_y = all_boundaries(pairs)
            committed_x += boundaries_x
            committed_y += boundaries_y
            cut_counts[index] = len(boundaries_x)

    # 4. Sorted boundaries give sorted cuts: rounding and clipping keep order.
    stack = stack_partitions(
        boundary_cuts(np.asarray(committed_x, dtype=float), m),
        boundary_cuts(np.asarray(committed_y, dtype=float), m),
        cut_counts, m, m,
    )
    bands = build_constraint_bands(m, m, spec, stack, config)
    if config.symmetric_band:
        for index, (snapshot, shift) in enumerate(zip(snapshots, shifts)):
            bands[index] = _symmetric(
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
    pattern's precomputed envelope, for adaptive constraints the
    band-envelope bound of each window's own band, then early-abandoning
    banded DTW under the configured constraint family.  The surviving
    windows' DPs run in one lock-step call
    (:func:`repro.dtw.banded.banded_dtw_batch`): under a shared band
    (``fc,fw``, ``full``, ``itakura``), validated once at construction,
    as under per-window adaptive bands.  A block with one survivor runs
    the per-pair scan (:func:`repro.dtw.banded.banded_dtw`) instead,
    which is faster for a single pair.  Both give the same distances,
    cells and abandonment as the per-window scan.  The resulting
    distance profile goes through the shared non-overlap suppression
    policy in tick order.  LB_Kim and LB_Keogh lower-bound the *full* DTW
    and therefore every constrained DTW (the same admissibility argument
    as :class:`repro.engine.DistanceEngine`), and the band-envelope bound
    lower-bounds the DP over that band, so pruning never changes which
    matches are reported.
    """

    def __init__(
        self,
        pattern: Union[Sequence[float], np.ndarray],
        threshold: float,
        *,
        constraint: Union[str, ConstraintSpec] = "fc,fw",
        config: Optional[SDTWConfig] = None,
        name: str = "pattern",
        use_lb_kim: bool = True,
        use_lb_keogh: bool = True,
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
        distance_name = self.config.pointwise_distance
        admissible = (
            isinstance(distance_name, str)
            and distance_name.strip().lower() in _BOUNDABLE_DISTANCES
        )
        self.use_lb_kim = bool(use_lb_kim and admissible)
        self.use_lb_keogh = bool(use_lb_keogh and admissible)
        self.early_abandon = bool(early_abandon)

        self._spec: Optional[ConstraintSpec] = None
        self._shared_band: Optional[np.ndarray] = None
        self._extractor: Optional[IncrementalExtractor] = None
        self._pattern_features = FeatureSet(())
        self.constraint = self._resolve_constraint(
            constraint, itakura_max_slope, extractor_hop, extractor
        )
        if self._shared_band is not None:
            # Validated once: the lock-step kernel takes validated bands.
            self._shared_band = validate_band(self._shared_band, m, m, repair=True)

        # Pattern-side precomputation (the paper's one-time cost): LB_Kim
        # endpoints/extrema, the LB_Keogh envelope and, for per-window
        # bands, the range extrema of the band-envelope bound.
        self._y_first = float(self.pattern[0])
        self._y_last = float(self.pattern[-1])
        self._y_min = float(self.pattern.min())
        self._y_max = float(self.pattern.max())
        if self.constraint == "fc,fw":
            # One more sample than the band's half-width, matching the
            # engine's admissible pairing of envelope and band radius.
            radius = max(
                1, int(round(self.config.width_fraction * m / 2.0))
            ) + 1
            self._envelope = keogh_envelope(self.pattern, radius)
        else:
            self._envelope = None
        self._range_table = (
            range_extrema_table(self.pattern)
            if self._shared_band is None and self.use_lb_keogh
            else None
        )

        self._suppressor = MatchSuppressor(m, self.threshold)
        self.stats = StreamStats()

    def _resolve_constraint(
        self,
        constraint: Union[str, ConstraintSpec],
        itakura_max_slope: float,
        extractor_hop: Optional[int],
        extractor: Optional[IncrementalExtractor],
    ) -> str:
        m = self._m
        if isinstance(constraint, str):
            key = constraint.strip().lower().replace(" ", "")
            if key == "full":
                self._shared_band = full_band(m, m)
                return "full"
            if key == "itakura":
                if itakura_max_slope <= 1.0:
                    raise ValidationError("itakura_max_slope must be greater than 1")
                self._shared_band = itakura_band(m, m, itakura_max_slope)
                return "itakura"
        spec = parse_constraint_spec(constraint)
        if spec.core == "adaptive" or spec.width == "adaptive":
            self._spec = spec
            if extractor is not None:
                # Shared extractor (e.g. one per stream for all patterns of
                # this length): observe() is idempotent within a tick, so
                # several matchers can safely drive the same instance.
                if extractor.window_length != m:
                    raise ValidationError(
                        f"shared extractor maintains windows of "
                        f"{extractor.window_length} samples but the pattern "
                        f"has {m}"
                    )
                self._extractor = extractor
            else:
                self._extractor = IncrementalExtractor(
                    m, self.config, hop=extractor_hop
                )
            self._pattern_features = FeatureSet(
                extract_salient_features(self.pattern, self.config)
            )
        else:
            self._shared_band = sakoe_chiba_band_fraction(
                m, m, self.config.width_fraction
            )
        return spec.label

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
        distances = np.full(len(windows), np.inf)
        alive = np.arange(len(windows))
        if self.use_lb_kim:
            bound = np.maximum(
                np.maximum(
                    np.abs(windows[:, 0] - self._y_first),
                    np.abs(windows[:, -1] - self._y_last),
                ),
                np.maximum(
                    np.abs(windows.max(axis=1) - self._y_max),
                    np.abs(windows.min(axis=1) - self._y_min),
                ),
            )
            alive = np.flatnonzero(bound <= threshold)
            stats.pruned_lb_kim += len(windows) - alive.size
        if self.use_lb_keogh and alive.size:
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
        abandon = threshold if self.early_abandon else None
        if not alive.size:
            return distances
        if self._shared_band is not None:
            bands = self._shared_band
        else:
            picked = [snapshots[index] for index in alive.tolist()]
            bands = build_stream_bands(
                self._spec,
                [features for features, _ in picked],
                [first + index - self._m + 1 - start
                 for index, (_, start) in zip(alive.tolist(), picked)],
                self._pattern_features, self._m, self.config,
            )
            if self._range_table is not None:
                bound = lb_band_envelope(windows[alive], bands, self._range_table)
                # The bound sums in another order than the DP, so it gets the
                # same rounding slack as abandonment.
                passed = bound <= abandon_cutoff(threshold)
                stats.pruned_lb_keogh += alive.size - int(passed.sum())
                alive, bands = alive[passed], bands[passed]
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
