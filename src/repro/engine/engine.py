"""The batch distance engine: cascaded pruning over a stored collection.

:class:`DistanceEngine` answers k-NN queries (and builds full distance
matrices) against a collection of stored series in one call, running a
three-stage pruning cascade per query:

1. **LB_Kim** — a constant-time bound from precomputed first/last/min/max
   profiles; candidates whose bound already exceeds the running k-th best
   distance are dropped before anything else is computed.
2. **LB_Keogh** — an O(L) envelope bound.  For the Sakoe–Chiba family over
   an equal-length collection the envelopes use the band's own radius (the
   classic admissible pairing from Keogh, VLDB 2002); for every other
   constraint family the engine falls back to the *global* envelope
   (min/max of the candidate), which lower-bounds the full DTW and hence
   every constrained DTW, keeping the cascade exact for all families.
3. **Early-abandoning banded DTW** — surviving candidates are refined in
   ascending-bound order; the dynamic program stops as soon as a whole row
   exceeds the best-so-far k-th distance.

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
from ..core.bands import parse_constraint_spec
from ..core.config import SDTWConfig
from ..core.features import FeatureSet, SalientFeature
from ..core.sdtw import SDTW
from ..datasets.base import Dataset
from ..dtw.banded import banded_dtw, banded_dtw_batch
from ..dtw.constraints import full_band, itakura_band, sakoe_chiba_band_fraction
from ..dtw.distances import get_pointwise_distance
from ..dtw.lower_bounds import (
    keogh_envelope,
    kim_profile,
    lb_keogh,
    lb_kim,
    lb_kim_batch,
    lb_keogh_batch,
)
from ..exceptions import DatasetError, ValidationError
from .backends import default_num_workers, resolve_backend, run_parallel
from .stats import EngineStats

# Constraint families whose band depends only on the pair of lengths, so a
# single validated band can drive the batch DP kernel for every candidate.
_SHARED_BAND_CONSTRAINTS = ("full", "fc,fw", "itakura")

# Pointwise distances the LB_Kim / LB_Keogh derivations hold for.
_BOUNDABLE_DISTANCES = ("absolute", "manhattan")


def normalize_constraint(constraint: Union[str, object]) -> str:
    """Canonical engine constraint label.

    Accepts ``"full"``, ``"itakura"``, any sDTW constraint label or
    :class:`~repro.core.bands.ConstraintSpec`, and the usual aliases
    (``"sakoe-chiba"`` maps to ``"fc,fw"``).
    """
    if isinstance(constraint, str):
        key = constraint.strip().lower().replace(" ", "")
        if key == "full":
            return "full"
        if key == "itakura":
            return "itakura"
    try:
        return parse_constraint_spec(constraint).label
    except ValidationError as exc:
        raise ValidationError(f"{exc}; the engine additionally accepts "
                              f"'full' and 'itakura'") from exc


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


@dataclass(frozen=True)
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

    def tight_row_one(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Tight envelope of one slot (the serial cascade's hot accessor)."""
        if len(self.segments) == 1:
            seg = self.segments[0]
            return seg.tight_upper[index], seg.tight_lower[index]
        s = int(self._segment_of(np.array([index]))[0])
        local = index - int(self.seg_starts[s])
        seg = self.segments[s]
        return seg.tight_upper[local], seg.tight_lower[local]


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
        Master switch for the lower-bound stages; ``False`` scans every
        candidate (early abandonment stays on unless also disabled).
    use_lb_kim, use_lb_keogh, early_abandon:
        Individual cascade-stage switches.
    itakura_max_slope:
        Slope parameter of the ``"itakura"`` constraint.
    batch_size:
        Chunk size of the vectorised refinement stage: candidates are
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
        use_lb_kim: bool = True,
        use_lb_keogh: bool = True,
        early_abandon: bool = True,
        itakura_max_slope: float = 2.0,
        batch_size: int = 32,
    ) -> None:
        self.constraint = normalize_constraint(constraint)
        self.config = config if config is not None else SDTWConfig()
        self.backend = resolve_backend(backend)
        self.num_workers = num_workers
        self.use_lb_kim = bool(prune and use_lb_kim)
        self.use_lb_keogh = bool(prune and use_lb_keogh)
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
        distance_name = self.config.pointwise_distance
        self._bounds_admissible = (
            isinstance(distance_name, str)
            and distance_name.strip().lower() in _BOUNDABLE_DISTANCES
        )

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
    @property
    def _needs_alignment(self) -> bool:
        if self.constraint in ("full", "itakura"):
            return False
        spec = parse_constraint_spec(self.constraint)
        return spec.core == "adaptive" or spec.width == "adaptive"

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
        tight_radius = self._tight_radius(int(lengths[0])) if equal_length else None
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
        if self._needs_alignment:
            # Salient features are a one-time, per-series cost; extracting
            # them here lets multiprocessing workers inherit a warm cache.
            for stored in self._stored:
                self._sdtw.extract_features(stored.values)

    def _tight_radius(self, length: int) -> Optional[int]:
        """The tight LB_Keogh envelope radius, when the family supports it."""
        if self.constraint != "fc,fw":
            return None
        # One more sample than the band's half-width, so floor/ceil
        # rounding in the band builder can never break admissibility.
        return max(1, int(round(self.config.width_fraction * length / 2.0))) + 1

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
            use_lb_kim=self.use_lb_kim,
            use_lb_keogh=self.use_lb_keogh,
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
        if self._needs_alignment:
            for item in new_stored:
                self._sdtw.extract_features(item.values)
        return derived

    # ------------------------------------------------------------------ #
    # Constraint plumbing
    # ------------------------------------------------------------------ #
    def _shared_band(self, n: int, m: int) -> Optional[np.ndarray]:
        """The constraint band when it depends only on the grid shape."""
        if self.constraint == "full":
            return full_band(n, m)
        if self.constraint == "fc,fw":
            return sakoe_chiba_band_fraction(n, m, self.config.width_fraction)
        if self.constraint == "itakura":
            return itakura_band(n, m, self.itakura_max_slope)
        return None

    def _refine(
        self,
        query: np.ndarray,
        stored: _Stored,
        threshold: Optional[float],
        band: Optional[np.ndarray] = None,
        query_features: Optional[Sequence[SalientFeature]] = None,
    ) -> Tuple[float, int, bool, float, float, float]:
        """One refinement: ``(distance, cells, abandoned, extract, match, dp)``.

        Constraints that align salient features take the query's features
        from *query_features* (see :meth:`_query_features`).
        """
        if band is None:
            band = self._shared_band(query.size, stored.values.size)
        if band is not None:
            start = time.perf_counter()
            result = banded_dtw(
                query, stored.values, band, self.config.pointwise_distance,
                return_path=False, abandon_threshold=threshold,
            )
            dp_seconds = time.perf_counter() - start
            return (result.distance, result.cells_filled, result.abandoned,
                    0.0, 0.0, dp_seconds)
        result = self._sdtw.distance(
            query, stored.values, self.constraint, abandon_threshold=threshold,
            features_x=query_features,
        )
        return (result.distance, result.cells_filled, result.abandoned,
                result.extract_seconds, result.matching_seconds,
                result.dp_seconds)

    def _query_features(
        self,
        query: np.ndarray,
        features: Optional[Sequence[SalientFeature]],
        stats: EngineStats,
    ) -> Optional[Sequence[SalientFeature]]:
        """The query's salient features, extracted at most once per query.

        Given features (from candidate generation) are used as they are.
        Otherwise they are extracted on first need and timed into
        *stats*, without entering the stored-series cache, so they are
        dropped when the query returns.  Either way they are stacked once
        (:class:`~repro.core.features.FeatureSet`), not once per refined
        candidate.
        """
        if features is None and self._needs_alignment:
            features, seconds = self._sdtw.query_features(query)
            stats.extract_seconds += seconds
        return None if features is None else FeatureSet.of(features)

    def _keogh_tight_applicable(self, n: int) -> bool:
        prep = self._prepared
        return (
            prep is not None
            and prep.has_tight
            and prep.equal_length
            and n == int(prep.lengths[0])
        )

    def _keogh_bound_one(self, query: np.ndarray, index: int) -> float:
        prep = self._prepared
        if self._keogh_tight_applicable(query.size):
            return lb_keogh(
                query, self._stored[index].values, prep.tight_radius,
                envelope=prep.tight_row_one(index),
            )
        return _global_keogh_one(
            query, float(prep.mins[index]), float(prep.maxs[index])
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

        use_kim = self.use_lb_kim and self._bounds_admissible
        use_keogh = self.use_lb_keogh and self._bounds_admissible
        lazy_keogh = mode == "serial" and use_kim and use_keogh

        # With a candidate restriction the bounds are only computed over
        # the included subset (scattered back into full-size vectors so
        # the cascade below stays index-addressed); an unrestricted scan
        # keeps the cheaper dense-batch path.
        restricted = candidate_indices is not None
        bound_start = time.perf_counter()
        kim_all: Optional[np.ndarray] = None
        keogh_all: Optional[np.ndarray] = None
        if use_kim:
            if restricted:
                kim_all = np.zeros(len(self._stored))
                if include.size:
                    kim_all[include] = lb_kim_batch(
                        kim_profile(query), prep.profiles[include]
                    )
            else:
                kim_all = lb_kim_batch(kim_profile(query), prep.profiles)
            stats.lb_kim_computed = int(include.size)
        if use_keogh and not lazy_keogh:
            if restricted:
                keogh_all = np.zeros(len(self._stored))
                if include.size:
                    keogh_all[include] = self._keogh_bounds_batch(
                        query, subset=include
                    )
            elif mode == "serial":
                keogh_all = np.array(
                    [self._keogh_bound_one(query, i) for i in range(len(self._stored))]
                )
            else:
                keogh_all = self._keogh_bounds_batch(query)
            stats.lb_keogh_computed = int(include.size)
        if kim_all is not None and keogh_all is not None:
            bound_all = np.maximum(kim_all, keogh_all)
        elif kim_all is not None:
            bound_all = kim_all
        elif keogh_all is not None:
            bound_all = keogh_all
        else:
            bound_all = np.zeros(len(self._stored))
        stats.bound_seconds += time.perf_counter() - bound_start

        # Ascending bound, index as the deterministic tie-break.
        order = include[np.lexsort((include, bound_all[include]))]

        kept: List[Tuple[float, int]] = []
        worst = np.inf

        def prune_remaining(position: int) -> None:
            for j in order[position:]:
                if kim_all is not None and kim_all[j] > worst:
                    stats.pruned_lb_kim += 1
                elif keogh_all is not None:
                    stats.pruned_lb_keogh += 1
                else:
                    stats.pruned_lb_kim += 1

        def absorb(distance: float, index: int) -> None:
            nonlocal worst
            kept.append((float(distance), int(index)))
            kept.sort()
            if len(kept) > k:
                kept.pop()
            if len(kept) == k:
                worst = kept[-1][0]

        band = self._shared_band(n, int(prep.lengths[0])) if prep.equal_length else None
        use_batch_dp = mode == "vectorized" and band is not None

        position = 0
        while position < order.size:
            limit = worst if len(kept) == k else np.inf
            if bound_all[order[position]] > limit:
                prune_remaining(position)
                break
            if use_batch_dp:
                stop = min(position + self.batch_size, order.size)
                chunk: List[int] = []
                for t in range(position, stop):
                    if bound_all[order[t]] > limit:
                        break
                    chunk.append(int(order[t]))
                threshold = limit if (self.early_abandon and np.isfinite(limit)) else None
                dp_start = time.perf_counter()
                dists, cell_counts, abandoned_mask = banded_dtw_batch(
                    query, prep.matrix_rows(chunk), band,
                    get_pointwise_distance(self.config.pointwise_distance),
                    threshold,
                )
                stats.dp_seconds += time.perf_counter() - dp_start
                stats.cells_filled += int(cell_counts.sum())
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
            if lazy_keogh:
                bound_start = time.perf_counter()
                keogh_bound = self._keogh_bound_one(query, index)
                stats.lb_keogh_computed += 1
                stats.bound_seconds += time.perf_counter() - bound_start
                if len(kept) == k and keogh_bound > worst:
                    stats.pruned_lb_keogh += 1
                    continue
            threshold = (
                worst if (self.early_abandon and len(kept) == k) else None
            )
            if band is None:
                query_features = self._query_features(query, query_features, stats)
            distance, cells, was_abandoned, extract_s, match_s, dp_s = self._refine(
                query, self._stored[index], threshold, band=band,
                query_features=query_features,
            )
            stats.cells_filled += cells
            stats.extract_seconds += extract_s
            stats.matching_seconds += match_s
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
        band = self._shared_band(n, int(prep.lengths[0])) if prep.equal_length else None
        if mode == "vectorized" and band is not None:
            dp_start = time.perf_counter()
            parts = []
            pointwise = get_pointwise_distance(self.config.pointwise_distance)
            for seg in prep.segments:
                seg_row, cell_counts, _ = banded_dtw_batch(
                    query, seg.matrix, band, pointwise, None,
                )
                parts.append(seg_row)
                stats.cells_filled += int(cell_counts.sum())
            row = parts[0] if len(parts) == 1 else np.concatenate(parts)
            stats.dp_seconds += time.perf_counter() - dp_start
            stats.dtw_computed += count
        else:
            query_features = None
            if band is None:
                query_features = self._query_features(query, None, stats)
            for index, stored in enumerate(self._stored):
                distance, cells, _, extract_s, match_s, dp_s = self._refine(
                    query, stored, None, band=band, query_features=query_features,
                )
                row[index] = distance
                stats.cells_filled += cells
                stats.extract_seconds += extract_s
                stats.matching_seconds += match_s
                stats.dp_seconds += dp_s
                stats.dtw_computed += 1
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
        backend: Optional[str] = None,
    ) -> BatchKNNResult:
        """k nearest stored series for every query, in one batch call.

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
        backend:
            Per-call execution-backend override (results are identical
            across backends; the equivalence suite pins that down).  The
            serving layer uses this to run coalesced micro-batches
            through the vectorised batch kernels while interactive
            single queries keep the engine's configured backend.
        """
        self._require_collection()
        self.prepare()
        active_backend = (
            self.backend if backend is None else resolve_backend(backend)
        )
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
        if active_backend == "multiprocessing" and len(payloads) > 1:
            workers = (
                self.num_workers if self.num_workers is not None
                else default_num_workers()
            )
            outcomes = run_parallel(self, _knn_query_task, payloads, workers)
        else:
            mode = "serial" if active_backend == "serial" else "vectorized"
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
