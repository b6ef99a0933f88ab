"""The batch distance engine: cascaded pruning over a stored collection.

:class:`DistanceEngine` answers k-NN queries (and builds full distance
matrices) against a collection of stored series in one call, running a
three-stage pruning cascade per query:

1. **LB_Kim** — a constant-time bound from precomputed first/last/min/max
   profiles.
2. **LB_Keogh** — an O(L) envelope bound.  For the Sakoe–Chiba family over
   an equal-length collection the envelopes use the band's own radius (the
   classic admissible pairing from Keogh, VLDB 2002); for every other
   constraint family the engine falls back to the *global* envelope
   (min/max of the candidate), which lower-bounds the full DTW and hence
   every constrained DTW, keeping the cascade exact for all families.
3. **Early-abandoning banded DTW** — candidates are refined in ascending
   order of the larger of their two bounds (stored index as tie-break);
   once that bound exceeds the best-so-far k-th distance every remaining
   candidate is pruned, and the dynamic program stops as soon as a whole
   row exceeds it.

Stages 1 and 2 run for every candidate on every backend, one batch call
each, before any refinement: ordering by the tighter bound refines fewer
candidates than ordering by LB_Kim alone.  Stage 3 takes the candidates
a chunk of ``batch_size`` at a time, in bound order, cut where a bound
exceeds the k-th best, and refines each chunk in one lock-step call of
:func:`repro.dtw.banded.banded_dtw_batch` under the k-th best distance
at the chunk's start; candidates of different lengths are padded and
each reads its own last column.  The backends differ only in how a
shape-only family runs stage 3: ``serial`` keeps the per-pair scan,
one candidate at a time, as the oracle (see
:mod:`repro.engine.backends`).

A family that aligns salient features gives every pair its own band.
For it, each chunk starts with the alignment stage on every backend:
the chunk is aligned with the query in one pass and gets its bands
(:func:`repro.core.alignment.align_candidates`, from one cached
:class:`~repro.core.features.FeatureSet` per stored series), and the
chunk's lock-step call runs each candidate under its own band.

Every stage is *admissible* (bounds never exceed the true constrained
distance, and abandonment only fires when the distance provably exceeds
the threshold), so the returned neighbours are identical to an exhaustive
scan — the property-based suite in ``tests/test_properties.py`` checks
exactly that.  Bounds are only enabled for the absolute-difference
pointwise distance they are derived for; other ground distances disable
stages 1–2 automatically (abandonment stays valid for any non-negative
pointwise distance).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_series, check_int_at_least
from ..core.alignment import align_candidates
from ..core.bands import resolve_constraint
from ..core.config import SDTWConfig
from ..core.features import FeatureSet, SalientFeature
from ..core.sdtw import SDTW
from ..datasets.base import Dataset
from ..dtw.banded import banded_dtw, banded_dtw_batch
from ..dtw.distances import get_pointwise_distance
from ..dtw.lower_bounds import (
    bounds_hold_for,
    keogh_envelope,
    kim_profile,
    # Not called here; bound only because perfbench/tracer.py patches this name.
    lb_keogh as lb_keogh,  # noqa: F401
    lb_kim,
    lb_kim_batch,
    lb_keogh_batch,
)
from ..exceptions import DatasetError, ValidationError
from .backends import default_num_workers, resolve_backend, run_parallel
from .stats import EngineStats


def normalize_constraint(constraint: Union[str, object]) -> str:
    """Canonical engine constraint label.

    Accepts ``"full"``, ``"itakura"``, any sDTW constraint label or
    :class:`~repro.core.bands.ConstraintSpec`, and the usual aliases
    (``"sakoe-chiba"`` maps to ``"fc,fw"``); see
    :func:`~repro.core.bands.resolve_constraint`.
    """
    return resolve_constraint(constraint).label


def _global_keogh_one(x: np.ndarray, y_min: float, y_max: float) -> float:
    """LB via the global envelope: mass of *x* outside ``[y_min, y_max]``.

    Admissible against the full DTW (every point of *x* is matched by at
    least one path step) and therefore against every constrained DTW.
    """
    above = np.maximum(x - y_max, 0.0)
    below = np.maximum(y_min - x, 0.0)
    return float(above.sum() + below.sum())


def _global_keogh_batch(
    x: np.ndarray, mins: np.ndarray, maxs: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`_global_keogh_one` against ``C`` candidates."""
    above = np.maximum(x[np.newaxis, :] - maxs[:, np.newaxis], 0.0)
    below = np.maximum(mins[:, np.newaxis] - x[np.newaxis, :], 0.0)
    return above.sum(axis=1) + below.sum(axis=1)


def cascade_bounds(
    x: Union[Sequence[float], np.ndarray],
    y: Union[Sequence[float], np.ndarray],
) -> Tuple[float, float]:
    """The engine's cascading lower bounds for one pair.

    Returns ``(stage1, stage2)`` with ``stage1 <= stage2 <= DTW(x, y)``
    for the absolute-difference ground distance: stage 1 is LB_Kim and
    stage 2 sharpens it with the global-envelope LB_Keogh (the running
    maximum keeps the cascade monotone, which raw LB_Kim / LB_Keogh values
    alone do not guarantee).
    """
    xs = as_series(x, "x")
    ys = as_series(y, "y")
    stage1 = lb_kim(xs, ys)
    stage2 = max(stage1, _global_keogh_one(xs, float(ys.min()), float(ys.max())))
    return stage1, stage2


@dataclass(frozen=True, slots=True)
class EngineHit:
    """One retrieved neighbour."""

    identifier: str
    index: int
    distance: float
    label: Optional[int] = None


@dataclass(frozen=True)
class QueryResult:
    """k-NN hits and work accounting for a single query."""

    hits: Tuple[EngineHit, ...]
    stats: EngineStats

    @property
    def indices(self) -> Tuple[int, ...]:
        return tuple(hit.index for hit in self.hits)

    @property
    def labels(self) -> List[Optional[int]]:
        return [hit.label for hit in self.hits]


@dataclass
class BatchKNNResult:
    """Result of a batch k-NN call.

    Attributes
    ----------
    results:
        One :class:`QueryResult` per query, in query order.
    elapsed_seconds:
        Wall-clock time of the whole batch (with the multiprocessing
        backend this is smaller than the sum of per-query times).
    """

    results: List[QueryResult]
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]

    @property
    def stats(self) -> EngineStats:
        """Per-query stats summed over the batch."""
        return EngineStats.merged([r.stats for r in self.results])

    def rankings(self) -> List[Tuple[int, ...]]:
        """Hit indices per query (the quantity equivalence tests compare)."""
        return [result.indices for result in self.results]


@dataclass
class BatchDistanceResult:
    """A (num_queries, collection_size) distance matrix plus accounting."""

    distances: np.ndarray
    stats: EngineStats


@dataclass
class _Stored:
    identifier: str
    values: np.ndarray
    label: Optional[int]


@dataclass(frozen=True)
class _PreparedSegment:
    """One immutable slice of the prepared collection caches.

    Segments are the unit of structural sharing between an engine and the
    engines derived from it via :meth:`DistanceEngine.extended`: a derived
    engine keeps its parent's segment objects untouched and appends one new
    segment holding only the caches of the added series, so deriving costs
    O(new) envelope/profile work instead of O(N).  Only the large per-sample
    arrays live here (the stacked series matrix and the tight LB_Keogh
    envelopes, each O(size x length)); the O(size) arrays are merged into
    :class:`_Prepared` at derivation time because copying them is cheap.
    """

    size: int
    matrix: Optional[np.ndarray]
    tight_upper: Optional[np.ndarray]
    tight_lower: Optional[np.ndarray]


def _merge_segments(left: _PreparedSegment, right: _PreparedSegment) -> _PreparedSegment:
    """Concatenate two adjacent segments (the binary-counter merge step)."""

    def _cat(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if a is None or b is None or a.shape[1:] != b.shape[1:]:
            return None
        return np.concatenate([a, b])

    return _PreparedSegment(
        size=left.size + right.size,
        matrix=_cat(left.matrix, right.matrix),
        tight_upper=_cat(left.tight_upper, right.tight_upper),
        tight_lower=_cat(left.tight_lower, right.tight_lower),
    )


@dataclass
class _Prepared:
    """Per-collection caches built once and shared by every query.

    The O(N)-sized arrays (lengths, Kim profiles, min/max, identifier map)
    are stored merged; the O(N x L) arrays are split across ``segments`` so
    derived engines can share them structurally (see :class:`_PreparedSegment`).
    """

    lengths: np.ndarray
    equal_length: bool
    profiles: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray
    segments: Tuple[_PreparedSegment, ...] = ()
    seg_starts: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=int))
    tight_radius: Optional[int] = None
    # Every index stored under an identifier: duplicates must all be
    # excluded by leave-one-out queries, like the sequential engine did.
    indices_of: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def has_matrix(self) -> bool:
        return bool(self.segments) and all(s.matrix is not None for s in self.segments)

    @property
    def has_tight(self) -> bool:
        return (
            self.tight_radius is not None
            and bool(self.segments)
            and all(s.tight_upper is not None for s in self.segments)
        )

    def _segment_of(self, indices: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.seg_starts, indices, side="right") - 1

    def _gather(self, indices, member: str) -> np.ndarray:
        """Gather rows of a segmented O(N x L) cache for the given slots."""
        idx = np.asarray(indices, dtype=int)
        if len(self.segments) == 1:
            return getattr(self.segments[0], member)[idx]
        first = getattr(self.segments[0], member)
        out = np.empty((idx.size,) + first.shape[1:], dtype=first.dtype)
        seg_ids = self._segment_of(idx)
        for s in np.unique(seg_ids):
            rows = seg_ids == s
            local = idx[rows] - int(self.seg_starts[s])
            out[rows] = getattr(self.segments[int(s)], member)[local]
        return out

    def matrix_rows(self, indices) -> np.ndarray:
        """Stacked series values of the given slots (equal-length only)."""
        return self._gather(indices, "matrix")

    def tight_rows(self, indices) -> Tuple[np.ndarray, np.ndarray]:
        """Tight LB_Keogh envelopes (upper, lower) of the given slots."""
        return self._gather(indices, "tight_upper"), self._gather(indices, "tight_lower")


class DistanceEngine:
    """Batch k-NN / distance-matrix computation with cascaded pruning.

    Every query's per-stage work accounting lands in an
    :class:`~repro.engine.stats.EngineStats` on the result; the
    telemetry layer (:mod:`repro.telemetry`) turns those records into
    per-query traces and aggregate Prometheus/JSON metrics without
    adding any timers to the cascade itself.

    Parameters
    ----------
    constraint:
        Constraint family of the refinement distance: ``"full"``,
        ``"fc,fw"`` (Sakoe–Chiba), ``"itakura"``, or any sDTW locally
        relevant family (``"fc,aw"``, ``"ac,fw"``, ``"ac,aw"``,
        ``"ac2,aw"``).
    config:
        sDTW configuration (band widths, descriptors, pointwise distance).
    backend:
        ``"serial"``, ``"vectorized"`` or ``"multiprocessing"`` (see
        :mod:`repro.engine.backends`).
    num_workers:
        Worker processes for the multiprocessing backend (default: CPU
        count).
    prune:
        Whether the lower-bound stages (LB_Kim, then LB_Keogh) run.  They
        hold for the absolute-difference pointwise distance only, so under
        any other distance the engine refines every candidate.  Pruning is
        exact: it changes the work, never the answer.
    early_abandon:
        Whether a refinement stops once a whole DP row exceeds the running
        k-th best distance.
    itakura_max_slope:
        Slope parameter of the ``"itakura"`` constraint.
    batch_size:
        Chunk size of the lock-step refinement stage (every aligning
        family; shape-only families outside ``serial``): candidates are
        refined in ascending-bound chunks of this size so the abandonment
        threshold tightens between chunks.
    """

    def __init__(
        self,
        constraint: str = "ac,aw",
        config: Optional[SDTWConfig] = None,
        *,
        backend: str = "serial",
        num_workers: Optional[int] = None,
        prune: bool = True,
        early_abandon: bool = True,
        itakura_max_slope: float = 2.0,
        batch_size: int = 32,
    ) -> None:
        self._resolved = resolve_constraint(constraint)
        self.constraint = self._resolved.label
        self.config = config if config is not None else SDTWConfig()
        self.backend = resolve_backend(backend)
        self.num_workers = num_workers
        self.prune = bool(prune) and bounds_hold_for(self.config.pointwise_distance)
        self.early_abandon = bool(early_abandon)
        if itakura_max_slope <= 1.0:
            raise ValidationError("itakura_max_slope must be greater than 1")
        self.itakura_max_slope = float(itakura_max_slope)
        self.batch_size = check_int_at_least(batch_size, 1, "batch_size")
        self._sdtw = SDTW(self.config)
        self._stored: List[_Stored] = []
        self._prepared: Optional[_Prepared] = None
        # Tombstone mask over stored slots (None: every slot is live).
        # Derived engines mark removals here instead of re-packing the
        # collection, so old snapshots keep serving their slots untouched.
        self._alive: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Collection management
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._stored)

    def add(
        self,
        values: Union[Sequence[float], np.ndarray],
        identifier: Optional[str] = None,
        label: Optional[int] = None,
    ) -> str:
        """Add one series to the collection; returns its identifier.

        Auto-generated identifiers skip names already in use, so an
        explicit identifier can never be silently aliased (exclusion is
        identifier-keyed).  Explicitly repeating an identifier is allowed
        and excludes every copy, like the sequential engine.
        """
        array = as_series(values, "values")
        if identifier is None:
            counter = len(self._stored)
            taken = {s.identifier for s in self._stored}
            identifier = f"series-{counter:05d}"
            while identifier in taken:
                counter += 1
                identifier = f"series-{counter:05d}"
        self._stored.append(_Stored(identifier=identifier, values=array, label=label))
        if self._alive is not None:
            self._alive = np.append(self._alive, True)
        self._prepared = None
        return identifier

    def add_dataset(self, dataset: Dataset) -> List[str]:
        """Add every series of a data set (labels preserved).

        Returns the stored identifiers in insertion order, so callers can
        build leave-one-out exclusion lists without re-deriving the
        defaulting scheme.
        """
        identifiers = []
        for index, ts in enumerate(dataset):
            identifier = ts.identifier or f"{dataset.name}-{index:04d}"
            identifiers.append(
                self.add(ts.values, identifier=identifier, label=ts.label)
            )
        return identifiers

    @classmethod
    def from_dataset(cls, dataset: Dataset, *args, **kwargs) -> "DistanceEngine":
        """Build an engine over a data set in one call."""
        engine = cls(*args, **kwargs)
        engine.add_dataset(dataset)
        return engine

    def stored_items(self) -> List[Tuple[str, np.ndarray, Optional[int]]]:
        """The live collection as ``(identifier, values, label)`` tuples.

        The public accessor consumers (CLI, benchmarks, the indexing
        subsystem) use to replay stored series as queries or enumerate
        the collection, instead of depending on the engine's internal
        storage layout.  On a derived engine tombstoned slots are skipped,
        so the listing always matches what queries can return.
        """
        if self._alive is None:
            return [(s.identifier, s.values, s.label) for s in self._stored]
        return [
            (s.identifier, s.values, s.label)
            for i, s in enumerate(self._stored)
            if self._alive[i]
        ]

    @property
    def num_live(self) -> int:
        """Live (non-tombstoned) series count; equals ``len(self)`` on
        engines that were never derived with removals."""
        if self._alive is None:
            return len(self._stored)
        return int(self._alive.sum())

    @property
    def alive_mask(self) -> Optional[np.ndarray]:
        """The tombstone mask over stored slots (``None``: all live).

        Callers must treat the array as read-only; it is shared with the
        query path.
        """
        return self._alive

    @property
    def dead_fraction(self) -> float:
        """Fraction of stored slots that are tombstoned."""
        if not self._stored or self._alive is None:
            return 0.0
        return 1.0 - float(self._alive.sum()) / len(self._stored)

    def slot_of(self, identifier: str) -> int:
        """The stored slot of the live series under *identifier*.

        With duplicated identifiers the most recently added live slot is
        returned (the serving layer forbids duplicates, so this is exact
        there).
        """
        self.prepare()
        if self._prepared is None:
            raise DatasetError("the distance engine contains no series")
        for index in reversed(self._prepared.indices_of.get(identifier, ())):
            if self._alive is None or self._alive[index]:
                return int(index)
        raise DatasetError(f"no live series stored under {identifier!r}")

    # ------------------------------------------------------------------ #
    # Preparation (amortised one-time work, Section 3.4 of the paper)
    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Build the per-collection caches (profiles, envelopes, features).

        Called automatically by :meth:`knn` / :meth:`distance_matrix`;
        exposed so the one-time cost can be paid (and measured) up front.
        """
        if self._prepared is not None or not self._stored:
            return
        lengths = np.array([s.values.size for s in self._stored], dtype=int)
        equal_length = bool(lengths.size and (lengths == lengths[0]).all())
        profiles = np.stack([kim_profile(s.values) for s in self._stored])
        mins = np.array([float(s.values.min()) for s in self._stored])
        maxs = np.array([float(s.values.max()) for s in self._stored])
        indices_of: Dict[str, Tuple[int, ...]] = {}
        for i, stored in enumerate(self._stored):
            indices_of[stored.identifier] = indices_of.get(stored.identifier, ()) + (i,)
        tight_radius = (
            self._resolved.envelope_radius(int(lengths[0]), self.config)
            if equal_length else None
        )
        segment = self._build_segment(
            [s.values for s in self._stored],
            equal_length=equal_length,
            tight_radius=tight_radius,
        )
        self._prepared = _Prepared(
            lengths=lengths,
            equal_length=equal_length,
            profiles=profiles,
            mins=mins,
            maxs=maxs,
            segments=(segment,),
            seg_starts=np.zeros(1, dtype=int),
            tight_radius=tight_radius if segment.tight_upper is not None else None,
            indices_of=indices_of,
        )
        if self._resolved.aligns:
            # Salient features are a one-time, per-series cost; extracting
            # them here lets multiprocessing workers inherit a warm cache.
            for stored in self._stored:
                self._sdtw.extract_features(stored.values)

    def _build_segment(
        self,
        values: Sequence[np.ndarray],
        *,
        equal_length: bool,
        tight_radius: Optional[int],
    ) -> _PreparedSegment:
        """Compute one segment's O(size x length) caches from raw series."""
        matrix = np.stack(values) if equal_length else None
        tight_upper = tight_lower = None
        if tight_radius is not None and equal_length:
            envelopes = [keogh_envelope(v, tight_radius) for v in values]
            tight_upper = np.stack([e[0] for e in envelopes])
            tight_lower = np.stack([e[1] for e in envelopes])
        return _PreparedSegment(
            size=len(values),
            matrix=matrix,
            tight_upper=tight_upper,
            tight_lower=tight_lower,
        )

    def extended(
        self,
        added: Sequence[Tuple[Union[Sequence[float], np.ndarray], str, Optional[int]]] = (),
        *,
        removed_identifiers: Sequence[str] = (),
    ) -> "DistanceEngine":
        """Derive a new prepared engine in O(new) work, sharing this one.

        The derived engine reuses this engine's prepared segments (Kim
        profiles, tight envelopes, stacked values) untouched, appends one
        freshly computed segment for *added* series (``(values,
        identifier, label)`` tuples), and tombstones *removed_identifiers*
        in its own liveness mask — this engine is never mutated, so
        readers holding it keep serving bit-identical results.  Adjacent
        small segments are merged binary-counter style, which keeps the
        segment count O(log N) and the amortised merge cost O(1) copies
        per added series.
        """
        self._require_collection()
        self.prepare()
        prep = self._prepared
        stored = list(self._stored)
        alive = (
            np.ones(len(stored), dtype=bool)
            if self._alive is None
            else self._alive.copy()
        )
        for identifier in removed_identifiers:
            slots = [
                i for i in prep.indices_of.get(identifier, ()) if alive[i]
            ]
            if not slots:
                raise DatasetError(f"no live series stored under {identifier!r}")
            for slot in slots:
                alive[slot] = False

        new_stored = []
        for values, identifier, label in added:
            if identifier is None:
                raise ValidationError(
                    "extended() requires explicit identifiers for added series"
                )
            new_stored.append(
                _Stored(
                    identifier=identifier,
                    values=as_series(values, "values"),
                    label=label,
                )
            )

        derived = DistanceEngine(
            self.constraint,
            self.config,
            backend=self.backend,
            num_workers=self.num_workers,
            prune=self.prune,
            early_abandon=self.early_abandon,
            itakura_max_slope=self.itakura_max_slope,
            batch_size=self.batch_size,
        )
        derived._sdtw = self._sdtw  # share the salient-feature cache
        derived._stored = stored + new_stored
        derived._alive = np.concatenate(
            [alive, np.ones(len(new_stored), dtype=bool)]
        )

        if not new_stored:
            derived._prepared = _Prepared(
                lengths=prep.lengths,
                equal_length=prep.equal_length,
                profiles=prep.profiles,
                mins=prep.mins,
                maxs=prep.maxs,
                segments=prep.segments,
                seg_starts=prep.seg_starts,
                tight_radius=prep.tight_radius,
                indices_of=prep.indices_of,
            )
            return derived

        new_values = [s.values for s in new_stored]
        new_lengths = np.array([v.size for v in new_values], dtype=int)
        lengths = np.concatenate([prep.lengths, new_lengths])
        equal_length = bool((lengths == lengths[0]).all())
        seg_equal = bool((new_lengths == new_lengths[0]).all())
        # The new segment gets tight envelopes only when it stays
        # compatible with the parent's (same radius, same length), so
        # the all-segments-tight invariant of ``_Prepared.has_tight``
        # holds by construction.
        tight_radius = prep.tight_radius if equal_length else None
        segment = self._build_segment(
            new_values,
            equal_length=seg_equal and equal_length,
            tight_radius=tight_radius,
        )
        segments = prep.segments + (segment,)
        while len(segments) >= 2 and segments[-2].size <= 2 * segments[-1].size:
            segments = segments[:-2] + (_merge_segments(segments[-2], segments[-1]),)
        sizes = np.array([s.size for s in segments], dtype=int)
        seg_starts = np.concatenate([[0], np.cumsum(sizes[:-1])])

        indices_of = dict(prep.indices_of)
        base = len(stored)
        for offset, item in enumerate(new_stored):
            indices_of[item.identifier] = indices_of.get(item.identifier, ()) + (
                base + offset,
            )
        derived._prepared = _Prepared(
            lengths=lengths,
            equal_length=equal_length,
            profiles=np.concatenate(
                [prep.profiles, np.stack([kim_profile(v) for v in new_values])]
            ),
            mins=np.concatenate(
                [prep.mins, np.array([float(v.min()) for v in new_values])]
            ),
            maxs=np.concatenate(
                [prep.maxs, np.array([float(v.max()) for v in new_values])]
            ),
            segments=segments,
            seg_starts=seg_starts,
            tight_radius=(
                tight_radius if segment.tight_upper is not None else None
            ),
            indices_of=indices_of,
        )
        if self._resolved.aligns:
            for item in new_stored:
                self._sdtw.extract_features(item.values)
        return derived

    # ------------------------------------------------------------------ #
    # Refinement
    # ------------------------------------------------------------------ #
    def _shape_band(self, n: int, m: int, cache: Dict[int, np.ndarray]) -> np.ndarray:
        """The band of an ``n x m`` grid of a shape-only family, built
        once per column count *m* into *cache* (one per query)."""
        band = cache.get(m)
        if band is None:
            band = cache[m] = self._resolved.band(
                n, m, self.config, self.itakura_max_slope
            )
        return band

    def _refine(
        self,
        query: np.ndarray,
        stored: _Stored,
        threshold: Optional[float],
        band: np.ndarray,
    ) -> Tuple[float, int, bool, float]:
        """One per-pair DP: ``(distance, cells, abandoned, dp_seconds)``,
        how ``serial`` refines a shape-only family."""
        start = time.perf_counter()
        result = banded_dtw(
            query, stored.values, band, self.config.pointwise_distance,
            return_path=False, abandon_threshold=threshold,
        )
        return (result.distance, result.cells_filled, result.abandoned,
                time.perf_counter() - start)

    def _refine_chunk(
        self,
        query: np.ndarray,
        chunk: Sequence[int],
        threshold: Optional[float],
        features: Optional[FeatureSet],
        bands: Dict[int, np.ndarray],
        stats: EngineStats,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One lock-step DP over *chunk*: ``(distances, abandoned)``.

        With query *features* each candidate gets its band from the
        alignment stage (:meth:`_align`); otherwise an equal-length
        collection shares one shape-only band and a variable-length one
        stacks each candidate's (*bands*, by length).  The candidates are
        stacked, each padded on the right with its last value, and run in
        one :func:`~repro.dtw.banded.banded_dtw_batch` call with their
        own column counts.  Stacking and the call are ``dp_seconds``.
        """
        prep = self._prepared
        n = query.size
        lengths = prep.lengths[chunk]
        if features is not None:
            pair_bands = self._align(query, features, chunk, stats)
        elif prep.equal_length:
            pair_bands = self._shape_band(n, int(lengths[0]), bands)
        else:
            pair_bands = np.stack(
                [self._shape_band(n, m, bands) for m in lengths.tolist()]
            )
        start = time.perf_counter()
        if prep.equal_length:
            rows = prep.matrix_rows(chunk)
        else:
            rows = np.empty((len(chunk), int(lengths.max())))
            for values_row, index in zip(rows, chunk):
                values = self._stored[index].values
                values_row[: values.size] = values
                values_row[values.size:] = values[-1]
        distances, cells, abandoned = banded_dtw_batch(
            query, rows, pair_bands,
            get_pointwise_distance(self.config.pointwise_distance),
            threshold, m=lengths,
        )
        stats.dp_seconds += time.perf_counter() - start
        stats.cells_filled += int(cells.sum())
        return distances, abandoned

    def _query_features(
        self,
        query: np.ndarray,
        features: Optional[Sequence[SalientFeature]],
        stats: EngineStats,
    ) -> FeatureSet:
        """The query's salient features, extracted at most once per query.

        Given features (from candidate generation) are used as they are.
        Otherwise they are extracted and timed into *stats*, without
        entering the stored-series cache, so they are dropped when the
        query returns.  Either way they are stacked once
        (:class:`~repro.core.features.FeatureSet`), not once per aligned
        candidate.
        """
        if features is None:
            features, seconds = self._sdtw.query_features(query)
            stats.extract_seconds += seconds
        return FeatureSet.of(features)

    def _align(
        self,
        query: np.ndarray,
        features: FeatureSet,
        chunk: Sequence[int],
        stats: EngineStats,
    ) -> np.ndarray:
        """The alignment stage: the ``(n, 2)`` band of *query* against
        each stored series of *chunk*, all built in one pass
        (:func:`~repro.core.alignment.align_candidates`).

        Each stored series' features come from the salient-feature cache
        as one stacked set.  The stage's time, band building included,
        is ``matching_seconds``; extracting a series missing from the
        cache is ``extract_seconds``.
        """
        start = time.perf_counter()
        candidates = []
        extracted = 0.0
        for index in chunk:
            candidate, seconds = self._sdtw.extract_features(self._stored[index].values)
            extracted += seconds
            candidates.append(candidate)
        bands = align_candidates(
            self._resolved, features, candidates, query.size,
            self._prepared.lengths[chunk], self.config,
        )
        stats.extract_seconds += extracted
        stats.matching_seconds += time.perf_counter() - start - extracted
        return bands

    def _chunk(
        self, order: np.ndarray, position: int, bound_all: np.ndarray, limit: float
    ) -> List[int]:
        """The next candidates in bound order, at most ``batch_size``,
        up to the first whose bound exceeds *limit*."""
        window = order[position: position + self.batch_size]
        over = np.flatnonzero(bound_all[window] > limit)
        return window[: over[0] if over.size else window.size].tolist()

    def _keogh_tight_applicable(self, n: int) -> bool:
        prep = self._prepared
        return (
            prep is not None
            and prep.has_tight
            and prep.equal_length
            and n == int(prep.lengths[0])
        )

    def _keogh_bounds_batch(
        self, query: np.ndarray, subset: Optional[np.ndarray] = None
    ) -> np.ndarray:
        prep = self._prepared
        if self._keogh_tight_applicable(query.size):
            if subset is not None:
                upper, lower = prep.tight_rows(subset)
                return lb_keogh_batch(query, upper, lower)
            parts = [
                lb_keogh_batch(query, seg.tight_upper, seg.tight_lower)
                for seg in prep.segments
            ]
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        if subset is not None:
            return _global_keogh_batch(
                query, prep.mins[subset], prep.maxs[subset]
            )
        return _global_keogh_batch(query, prep.mins, prep.maxs)

    # ------------------------------------------------------------------ #
    # The per-query cascade
    # ------------------------------------------------------------------ #
    def _run_query(
        self,
        query: np.ndarray,
        k: int,
        exclude_indices: Tuple[int, ...],
        mode: str,
        candidate_indices: Optional[Sequence[int]] = None,
        query_features: Optional[Sequence[SalientFeature]] = None,
    ) -> QueryResult:
        prep = self._prepared
        started = time.perf_counter()
        stats = EngineStats(queries=1)
        n = query.size
        excluded = set(exclude_indices)
        alive = self._alive
        if candidate_indices is None:
            include = np.array(
                [
                    i
                    for i in range(len(self._stored))
                    if i not in excluded and (alive is None or alive[i])
                ],
                dtype=int,
            )
        else:
            # The re-rank hook: scan only the given stored indices (the
            # indexing subsystem's candidate set).  The cascade and all
            # tie-breaking stay identical to a full scan over the subset.
            candidates = np.unique(np.asarray(candidate_indices, dtype=int))
            if candidates.size and (
                candidates[0] < 0 or candidates[-1] >= len(self._stored)
            ):
                raise ValidationError(
                    "candidate_indices contains out-of-range stored indices"
                )
            include = np.array(
                [
                    i
                    for i in candidates.tolist()
                    if i not in excluded and (alive is None or alive[i])
                ],
                dtype=int,
            )
        stats.candidates = int(include.size)
        stats.total_cells = int(n * prep.lengths[include].sum())

        # Both bounds run for every included candidate, one batch call
        # each, on every backend.  With a candidate restriction they are
        # only computed over the included subset (scattered back into
        # full-size vectors so the cascade below stays index-addressed);
        # an unrestricted scan keeps the cheaper dense-batch path.
        bound_start = time.perf_counter()
        kim_all: Optional[np.ndarray] = None
        if self.prune:
            if candidate_indices is not None:
                kim_all = np.zeros(len(self._stored))
                keogh_all = np.zeros(len(self._stored))
                if include.size:
                    kim_all[include] = lb_kim_batch(
                        kim_profile(query), prep.profiles[include]
                    )
                    keogh_all[include] = self._keogh_bounds_batch(
                        query, subset=include
                    )
            else:
                kim_all = lb_kim_batch(kim_profile(query), prep.profiles)
                keogh_all = self._keogh_bounds_batch(query)
            stats.lb_kim_computed = int(include.size)
            stats.lb_keogh_computed = int(include.size)
            bound_all = np.maximum(kim_all, keogh_all)
        else:
            bound_all = np.zeros(len(self._stored))
        stats.bound_seconds += time.perf_counter() - bound_start

        # Ascending bound, index as the deterministic tie-break.
        order = include[np.lexsort((include, bound_all[include]))]

        kept: List[Tuple[float, int]] = []
        worst = np.inf

        def prune_remaining(position: int) -> None:
            # Only reached with pruning on: both bound vectors exist.
            rest = order[position:]
            by_kim = int((kim_all[rest] > worst).sum())
            stats.pruned_lb_kim += by_kim
            stats.pruned_lb_keogh += int(rest.size) - by_kim

        def absorb(distance: float, index: int) -> None:
            nonlocal worst
            kept.append((float(distance), int(index)))
            kept.sort()
            if len(kept) > k:
                kept.pop()
            if len(kept) == k:
                worst = kept[-1][0]

        # Shape-only bands by candidate length, built once per query.
        bands: Dict[int, np.ndarray] = {}
        features = (
            self._query_features(query, query_features, stats)
            if self._resolved.aligns and order.size else None
        )
        # Every chunk runs in lock-step, except on ``serial`` for a
        # shape-only family, which keeps the per-pair scan as the oracle.
        lockstep = self._resolved.aligns or mode == "vectorized"

        position = 0
        while position < order.size:
            limit = worst if len(kept) == k else np.inf
            if bound_all[order[position]] > limit:
                prune_remaining(position)
                break
            if lockstep:
                # The whole chunk is refined under the k-th best distance
                # at its start.
                chunk = self._chunk(order, position, bound_all, limit)
                threshold = limit if (self.early_abandon and np.isfinite(limit)) else None
                dists, abandoned_mask = self._refine_chunk(
                    query, chunk, threshold, features, bands, stats
                )
                for offset, index in enumerate(chunk):
                    if abandoned_mask[offset]:
                        stats.dtw_abandoned += 1
                    else:
                        stats.dtw_computed += 1
                        absorb(dists[offset], index)
                position += len(chunk)
                continue

            index = int(order[position])
            position += 1
            threshold = (
                worst if (self.early_abandon and len(kept) == k) else None
            )
            stored = self._stored[index]
            distance, cells, was_abandoned, dp_s = self._refine(
                query, stored, threshold, self._shape_band(n, stored.values.size, bands)
            )
            stats.cells_filled += cells
            stats.dp_seconds += dp_s
            if was_abandoned:
                stats.dtw_abandoned += 1
                continue
            stats.dtw_computed += 1
            absorb(distance, index)

        hits = tuple(
            EngineHit(
                identifier=self._stored[index].identifier,
                index=index,
                distance=distance,
                label=self._stored[index].label,
            )
            for distance, index in kept
        )
        stats.elapsed_seconds = time.perf_counter() - started
        return QueryResult(hits=hits, stats=stats)

    def _matrix_row(self, query: np.ndarray, mode: str) -> Tuple[np.ndarray, EngineStats]:
        """All distances from one query to the collection (no pruning)."""
        prep = self._prepared
        started = time.perf_counter()
        stats = EngineStats(queries=1)
        count = len(self._stored)
        stats.candidates = count
        n = query.size
        stats.total_cells = int(n * prep.lengths.sum())
        row = np.empty(count)
        bands: Dict[int, np.ndarray] = {}
        features = (
            self._query_features(query, None, stats)
            if self._resolved.aligns else None
        )
        if self._resolved.aligns or mode == "vectorized":
            for first in range(0, count, self.batch_size):
                chunk = list(range(first, min(first + self.batch_size, count)))
                row[first: first + len(chunk)], _ = self._refine_chunk(
                    query, chunk, None, features, bands, stats
                )
        else:
            for index, stored in enumerate(self._stored):
                distance, cells, _, dp_s = self._refine(
                    query, stored, None, self._shape_band(n, stored.values.size, bands)
                )
                row[index] = distance
                stats.cells_filled += cells
                stats.dp_seconds += dp_s
        stats.dtw_computed += count
        stats.elapsed_seconds = time.perf_counter() - started
        return row, stats

    # ------------------------------------------------------------------ #
    # Public batch API
    # ------------------------------------------------------------------ #
    def _require_collection(self) -> None:
        if not self._stored:
            raise DatasetError("the distance engine contains no series")

    def _exclude_indices(self, identifier: Optional[str]) -> Tuple[int, ...]:
        if identifier is None:
            return ()
        return self._prepared.indices_of.get(identifier, ())

    def knn(
        self,
        queries: Sequence[Union[Sequence[float], np.ndarray]],
        k: int = 5,
        *,
        exclude_identifiers: Optional[Sequence[Optional[str]]] = None,
        candidate_indices: Optional[Sequence[Optional[Sequence[int]]]] = None,
        query_features: Optional[Sequence[Optional[Sequence[SalientFeature]]]] = None,
    ) -> BatchKNNResult:
        """k nearest stored series for every query, in one batch call.

        The engine's configured backend runs every query.  Queries share
        the prepared collection caches but no DP work: outside the
        multiprocessing backend each query runs its own cascade in turn.

        Parameters
        ----------
        queries:
            The query series.
        k:
            Neighbours per query.
        exclude_identifiers:
            Optional per-query identifier to skip (leave-one-out
            evaluations); must have one entry per query when given.
        candidate_indices:
            Optional per-query restriction to a subset of stored indices
            (the indexing subsystem's re-rank hook); ``None`` entries
            scan the whole collection.  Must have one entry per query
            when given.
        query_features:
            Optional per-query salient features, already extracted (the
            indexing subsystem extracts them for candidate generation);
            ``None`` entries are extracted here, once per query.  Must
            have one entry per query when given.
        """
        self._require_collection()
        self.prepare()
        k = check_int_at_least(k, 1, "k")
        arrays = [as_series(q, f"queries[{i}]") for i, q in enumerate(queries)]
        if exclude_identifiers is None:
            excludes: List[Optional[str]] = [None] * len(arrays)
        else:
            excludes = list(exclude_identifiers)
            if len(excludes) != len(arrays):
                raise ValidationError(
                    "exclude_identifiers must have one entry per query"
                )
        if candidate_indices is None:
            restrictions: List[Optional[Sequence[int]]] = [None] * len(arrays)
        else:
            restrictions = list(candidate_indices)
            if len(restrictions) != len(arrays):
                raise ValidationError(
                    "candidate_indices must have one entry per query"
                )
        if query_features is None:
            features: List[Optional[Sequence[SalientFeature]]] = [None] * len(arrays)
        else:
            features = list(query_features)
            if len(features) != len(arrays):
                raise ValidationError(
                    "query_features must have one entry per query"
                )
        payloads = [
            (qi, arrays[qi], k, self._exclude_indices(excludes[qi]),
             restrictions[qi], features[qi])
            for qi in range(len(arrays))
        ]
        started = time.perf_counter()
        if self.backend == "multiprocessing" and len(payloads) > 1:
            workers = (
                self.num_workers if self.num_workers is not None
                else default_num_workers()
            )
            outcomes = run_parallel(self, _knn_query_task, payloads, workers)
        else:
            mode = "serial" if self.backend == "serial" else "vectorized"
            outcomes = [
                (qi, self._run_query(
                    query, k, exclude, mode, candidates, query_features
                ))
                for qi, query, k, exclude, candidates, query_features in payloads
            ]
        ordered = [result for _, result in sorted(outcomes, key=lambda item: item[0])]
        return BatchKNNResult(
            results=ordered, elapsed_seconds=time.perf_counter() - started
        )

    def query(
        self,
        values: Union[Sequence[float], np.ndarray],
        k: int = 5,
        *,
        exclude_identifier: Optional[str] = None,
        candidate_indices: Optional[Sequence[int]] = None,
        query_features: Optional[Sequence[SalientFeature]] = None,
    ) -> QueryResult:
        """Single-query convenience wrapper over :meth:`knn`."""
        batch = self.knn(
            [values], k,
            exclude_identifiers=[exclude_identifier],
            candidate_indices=[candidate_indices],
            query_features=[query_features],
        )
        return batch.results[0]

    def distance_matrix(
        self,
        queries: Optional[Sequence[Union[Sequence[float], np.ndarray]]] = None,
    ) -> BatchDistanceResult:
        """Distances from every query to every stored series (no pruning).

        With ``queries=None`` the stored collection itself is used, giving
        the square constraint-distance matrix the experiments consume.
        """
        self._require_collection()
        if self._alive is not None and not bool(self._alive.all()):
            raise ValidationError(
                "distance_matrix is not available on a derived engine with "
                "tombstoned series; rebuild the engine over the live "
                "collection first"
            )
        self.prepare()
        if queries is None:
            arrays = [s.values for s in self._stored]
        else:
            arrays = [as_series(q, f"queries[{i}]") for i, q in enumerate(queries)]
        payloads = list(enumerate(arrays))
        started = time.perf_counter()
        if self.backend == "multiprocessing" and len(payloads) > 1:
            workers = (
                self.num_workers if self.num_workers is not None
                else default_num_workers()
            )
            outcomes = run_parallel(self, _matrix_row_task, payloads, workers)
        else:
            mode = "serial" if self.backend == "serial" else "vectorized"
            outcomes = [
                (qi, self._matrix_row(query, mode)) for qi, query in payloads
            ]
        rows: List[Optional[np.ndarray]] = [None] * len(arrays)
        stats = EngineStats()
        for qi, (row, row_stats) in outcomes:
            rows[qi] = row
            stats.merge(row_stats)
        stats.elapsed_seconds = time.perf_counter() - started
        stats.queries = len(arrays)
        return BatchDistanceResult(distances=np.stack(rows), stats=stats)


def _knn_query_task(engine: DistanceEngine, payload):
    """Multiprocessing task: run one query through the vectorised cascade."""
    qi, query, k, exclude_indices, candidate_indices, query_features = payload
    return qi, engine._run_query(
        query, k, exclude_indices, "vectorized", candidate_indices, query_features
    )


def _matrix_row_task(engine: DistanceEngine, payload):
    """Multiprocessing task: one full distance-matrix row."""
    qi, query = payload
    return qi, engine._matrix_row(query, "vectorized")
