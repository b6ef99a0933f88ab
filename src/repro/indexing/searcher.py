"""Two-stage indexed search: candidate generation + exact re-ranking.

:class:`IndexedSearcher` is the query-facing front of the indexing
subsystem.  A query runs in two stages:

1. **Candidate generation** — the query's salient features are
   quantized against the collection's :class:`Codebook` and scored
   through the :class:`InvertedIndex`; the top ``C`` series by codeword
   overlap (``C`` = the candidate budget, configurable per query) become
   the candidate set.  Cost scales with the postings touched, not with
   the collection size.
2. **Exact re-ranking** — the candidates are handed to the PR 1
   :class:`~repro.engine.DistanceEngine` cascade (LB_Kim -> LB_Keogh ->
   early-abandoning banded DTW) via its ``candidate_indices`` hook, so
   the distances and orderings of stage 2 are *exactly* those of a full
   scan restricted to the candidate set.

With ``candidates >= len(collection)`` the candidate set degrades to
the whole collection and the result is bit-identical to the exhaustive
engine ranking; ``exact=True`` skips stage 1 entirely (the escape
hatch).  :meth:`IndexedSearcher.recall_at_k` measures the speed/recall
trade-off against the exhaustive ranking.

A searcher only reads.  :class:`repro.service.Workspace` owns the index
it serves: ``build_index`` fits the :class:`Codebook` on the feature
store and builds the :class:`InvertedIndex` from the bags, incremental
adds, removals and compaction update copies of the index, and the
workspace persists the index under its ``index/`` directory and reopens
it.  Each update gets a new searcher over the new index at the next
serving snapshot.

When constructed with a telemetry registry (see :mod:`repro.telemetry`)
the searcher counts candidate-cache hits/misses, and when a query trace
is active (:func:`repro.telemetry.trace.current_trace`) stage 1 attaches
its sub-spans — feature extraction, TF-IDF ranking, or the cache
short-circuit — to the trace.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_series, check_int_at_least
from ..core.config import SDTWConfig
from ..core.features import SalientFeature, extract_salient_features
from ..engine import DistanceEngine
from ..engine.engine import EngineHit, QueryResult
from ..engine.stats import EngineStats
from ..exceptions import ValidationError
from ..telemetry.registry import NULL_REGISTRY
from ..telemetry.trace import current_trace
from .codebook import Codebook
from .postings import InvertedIndex


@dataclass(frozen=True)
class IndexedSearchResult:
    """Result of one indexed query.

    Attributes
    ----------
    hits:
        The k nearest candidates after exact re-ranking.
    candidates_generated:
        Size of the candidate set stage 1 handed to the engine (equal to
        the collection size for ``exact=True`` queries).
    exact:
        Whether the query bypassed candidate generation.
    generation_seconds:
        Stage 1 wall-clock (feature extraction + quantization + postings
        scoring); zero for exact queries.
    rerank_seconds:
        Stage 2 wall-clock (the engine cascade over the candidates).
    stats:
        The engine's per-stage work accounting for stage 2.
    """

    hits: Tuple[EngineHit, ...]
    candidates_generated: int
    exact: bool
    generation_seconds: float
    rerank_seconds: float
    stats: EngineStats

    @property
    def indices(self) -> Tuple[int, ...]:
        return tuple(hit.index for hit in self.hits)

    @property
    def elapsed_seconds(self) -> float:
        return self.generation_seconds + self.rerank_seconds


@dataclass
class RecallReport:
    """Recall of the indexed ranking against the exhaustive one."""

    k: int
    candidate_budget: int
    per_query: List[float] = field(default_factory=list)
    indexed_seconds: float = 0.0
    exhaustive_seconds: float = 0.0

    @property
    def mean_recall(self) -> float:
        return float(np.mean(self.per_query)) if self.per_query else 0.0

    @property
    def speedup(self) -> float:
        if self.indexed_seconds <= 0.0:
            return float("inf")
        return self.exhaustive_seconds / self.indexed_seconds


class IndexedSearcher:
    """k-NN search with sublinear candidate generation.

    Parameters
    ----------
    index:
        The inverted index over the collection.
    codebook:
        The quantizer the index was built with.
    engine:
        A :class:`DistanceEngine` whose stored collection matches the
        index order (series ``i`` of the engine is series ``i`` of the
        index).
    config:
        Extraction configuration used for query features; must match the
        configuration the indexed features were extracted with.
    candidate_budget:
        Default number of candidates generated per query.
    index_to_engine:
        Optional slot -> engine-position mapping.  Needed when the index
        carries tombstoned slots (the engine then only stores the live
        series); ``-1`` marks dead slots.  ``None`` means identity.
    postings_cache:
        Hot decoded-postings pages kept per shard (see
        :meth:`InvertedIndex.enable_postings_cache`); shard payloads are
        immutable, so the pages never go stale.  ``0`` disables.
    candidate_cache:
        LRU entries of stage-1 candidate sets keyed by (query bytes,
        budget); a repeat query skips candidate generation entirely.  A
        searcher never mutates its index, so the cache cannot go stale:
        an index update builds a new searcher with an empty cache.
        ``0`` disables.
    telemetry:
        Optional :class:`repro.telemetry.MetricsRegistry`; the searcher
        pre-binds ``repro_candidate_cache_requests_total{outcome}``
        counter children so the hot path pays one increment, not a
        registry lookup.  ``None`` binds the no-op null registry.
    """

    def __init__(
        self,
        index: InvertedIndex,
        codebook: Codebook,
        engine: DistanceEngine,
        *,
        config: Optional[SDTWConfig] = None,
        candidate_budget: int = 100,
        index_to_engine: Optional[Sequence[int]] = None,
        postings_cache: int = 0,
        candidate_cache: int = 0,
        telemetry=None,
    ) -> None:
        if index_to_engine is None:
            if len(engine) != index.num_series:
                raise ValidationError(
                    f"engine holds {len(engine)} series but the index covers "
                    f"{index.num_series}"
                )
            if index.num_tombstones:
                raise ValidationError(
                    "an index with tombstoned slots needs an explicit "
                    "index_to_engine mapping (the engine only stores live "
                    "series)"
                )
            self._index_to_engine: Optional[np.ndarray] = None
        else:
            mapping = np.asarray(index_to_engine, dtype=np.int64)
            if mapping.shape != (index.num_series,):
                raise ValidationError(
                    "index_to_engine must have one entry per index slot"
                )
            live = mapping[~index.tombstones]
            if live.size and (live.min() < 0 or live.max() >= len(engine)):
                raise ValidationError(
                    "index_to_engine maps a live slot outside the engine"
                )
            self._index_to_engine = mapping
        if not codebook.is_fitted:
            raise ValidationError("the searcher needs a fitted codebook")
        self.index = index
        self.codebook = codebook
        self.engine = engine
        self.config = config if config is not None else SDTWConfig()
        if self.config.descriptor.num_bins != codebook.config.descriptor_bins:
            raise ValidationError(
                f"extraction configuration has "
                f"{self.config.descriptor.num_bins}-bin descriptors but the "
                f"codebook was fitted on {codebook.config.descriptor_bins}-bin "
                f"descriptors"
            )
        self.candidate_budget = check_int_at_least(
            candidate_budget, 1, "candidate_budget"
        )
        index.enable_postings_cache(postings_cache)
        # Stage-1 candidate-set LRU.
        self._candidate_cache: "OrderedDict[Tuple[bytes, int], np.ndarray]" = (
            OrderedDict()
        )
        self._candidate_cache_capacity = max(0, int(candidate_cache))
        self._candidate_cache_lock = threading.Lock()
        registry = telemetry if telemetry is not None else NULL_REGISTRY
        cache_requests = registry.counter(
            "repro_candidate_cache_requests_total",
            "Stage-1 candidate-set cache lookups by outcome.",
            labels=("outcome",),
        )
        self._cache_hit_counter = cache_requests.labels(outcome="hit")
        self._cache_miss_counter = cache_requests.labels(outcome="miss")

    @property
    def index_to_engine(self) -> Optional[np.ndarray]:
        """The slot -> engine-position mapping (``None`` means identity).

        Exposed read-only so a derived serving snapshot can extend the
        previous snapshot's mapping in O(new slots) instead of
        recomputing it from the roster.
        """
        return self._index_to_engine

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #
    def _slots_to_engine(self, slots: np.ndarray) -> np.ndarray:
        """Translate index slots into engine positions (drop dead slots)."""
        if self._index_to_engine is None:
            return slots
        mapped = self._index_to_engine[slots]
        return mapped[mapped >= 0]

    def generate_candidates(
        self,
        values: Union[Sequence[float], np.ndarray],
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """Stage 1 alone: the ranked candidate indices for a query.

        Returned indices are engine positions (identical to index slots
        unless the index carries tombstoned slots).

        With an enabled candidate cache (``candidate_cache > 0``) a
        byte-identical repeat of a recent (query, budget) pair returns
        the memoised candidate set without touching the postings; the
        searcher's index never changes, so a hit is always exactly what
        a fresh stage 1 would produce.
        """
        return self._generate(values, limit)[0]

    def _generate(
        self,
        values: Union[Sequence[float], np.ndarray],
        limit: Optional[int],
    ) -> Tuple[np.ndarray, Optional[List[SalientFeature]]]:
        """Stage 1: the candidates and the query features it extracted.

        The features are ``None`` on a candidate-cache hit, which extracts
        nothing.
        """
        query = as_series(values, "query")
        limit = limit if limit is not None else self.candidate_budget
        limit = check_int_at_least(limit, 1, "limit")
        trace = current_trace()
        started = time.perf_counter() if trace is not None else 0.0
        cache_key: Optional[Tuple[bytes, int]] = None
        if self._candidate_cache_capacity:
            cache_key = (query.tobytes(), limit)
            with self._candidate_cache_lock:
                cached = self._candidate_cache.get(cache_key)
                if cached is not None:
                    self._candidate_cache.move_to_end(cache_key)
                    self._cache_hit_counter.inc()
                    if trace is not None:
                        trace.add_stage(
                            "candidate_cache",
                            time.perf_counter() - started,
                            hit=True,
                            candidates=int(cached.size),
                        )
                    return cached.copy(), None
            self._cache_miss_counter.inc()
        features = extract_salient_features(query, self.config)
        if trace is not None:
            extracted = time.perf_counter()
            trace.add_stage(
                "query_features", extracted - started, features=len(features)
            )
        bag = self.codebook.bag(features, query.size, query=True)
        candidates = self._slots_to_engine(self.index.candidates(bag, limit))
        if trace is not None:
            trace.add_stage(
                "candidate_rank",
                time.perf_counter() - extracted,
                candidates=int(candidates.size),
            )
        if cache_key is not None:
            with self._candidate_cache_lock:
                self._candidate_cache[cache_key] = candidates.copy()
                self._candidate_cache.move_to_end(cache_key)
                while len(self._candidate_cache) > self._candidate_cache_capacity:
                    self._candidate_cache.popitem(last=False)
        return candidates, features

    def query(
        self,
        values: Union[Sequence[float], np.ndarray],
        k: int = 10,
        *,
        candidates: Optional[int] = None,
        exact: bool = False,
        exclude_identifier: Optional[str] = None,
    ) -> IndexedSearchResult:
        """Find the k nearest stored series to a query.

        Parameters
        ----------
        values:
            The query series.
        k:
            Neighbours to return.
        candidates:
            Candidate budget ``C`` for this query (default: the
            searcher's budget).  ``C >= len(collection)`` reproduces the
            exhaustive ranking exactly.
        exact:
            Bypass the index and run the full engine scan (the escape
            hatch; the result is the exhaustive ranking).
        exclude_identifier:
            Skip this stored identifier (leave-one-out evaluations).
        """
        k = check_int_at_least(k, 1, "k")
        if exact:
            result = self.engine.query(
                values, k, exclude_identifier=exclude_identifier
            )
            return IndexedSearchResult(
                hits=result.hits,
                candidates_generated=len(self.engine),
                exact=True,
                generation_seconds=0.0,
                rerank_seconds=result.stats.elapsed_seconds,
                stats=result.stats,
            )
        started = time.perf_counter()
        candidate_set, features = self._generate(values, candidates)
        generation_seconds = time.perf_counter() - started
        # The re-rank aligns with the features stage 1 extracted, so the
        # query is extracted once, unless the engine extracts differently.
        engine_config = self.engine.config
        if (
            engine_config.scale_space != self.config.scale_space
            or engine_config.descriptor != self.config.descriptor
        ):
            features = None
        result: QueryResult = self.engine.query(
            values, k,
            exclude_identifier=exclude_identifier,
            candidate_indices=candidate_set,
            query_features=features,
        )
        return IndexedSearchResult(
            hits=result.hits,
            candidates_generated=int(candidate_set.size),
            exact=False,
            generation_seconds=generation_seconds,
            rerank_seconds=result.stats.elapsed_seconds,
            stats=result.stats,
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def recall_at_k(
        self,
        queries: Sequence[Union[Sequence[float], np.ndarray]],
        k: int = 10,
        *,
        candidates: Optional[int] = None,
        exclude_identifiers: Optional[Sequence[Optional[str]]] = None,
    ) -> RecallReport:
        """Recall@k of the indexed ranking vs. the exhaustive ranking.

        Each query is answered twice — through the index and through the
        full engine scan — and the report aggregates per-query recall
        plus the two wall-clock totals (the speed/recall trade-off in
        one call).
        """
        k = check_int_at_least(k, 1, "k")
        budget = (
            self.candidate_budget if candidates is None
            else check_int_at_least(candidates, 1, "candidates")
        )
        report = RecallReport(k=k, candidate_budget=budget)
        for qi, values in enumerate(queries):
            exclude = (
                exclude_identifiers[qi] if exclude_identifiers is not None else None
            )
            indexed = self.query(
                values, k, candidates=budget, exclude_identifier=exclude
            )
            report.indexed_seconds += indexed.elapsed_seconds
            exact = self.query(values, k, exact=True, exclude_identifier=exclude)
            report.exhaustive_seconds += exact.elapsed_seconds
            exact_top = set(exact.indices)
            if exact_top:
                overlap = len(exact_top & set(indexed.indices))
                report.per_query.append(overlap / len(exact_top))
            else:
                report.per_query.append(1.0)
        return report


__all__ = [
    "IndexedSearchResult",
    "IndexedSearcher",
    "RecallReport",
]
