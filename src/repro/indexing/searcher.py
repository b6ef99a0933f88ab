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

When constructed with a telemetry registry (see :mod:`repro.telemetry`)
the searcher counts candidate-cache hits/misses, and when a query trace
is active (:func:`repro.telemetry.trace.current_trace`) stage 1 attaches
its sub-spans — feature extraction, TF-IDF/PQ ranking, or the cache
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
from ..datasets.base import Dataset
from ..engine import DistanceEngine
from ..engine.engine import EngineHit, QueryResult
from ..engine.stats import EngineStats
from ..exceptions import ValidationError
from ..telemetry.registry import NULL_REGISTRY
from ..telemetry.trace import current_trace
from .codebook import Codebook, CodebookConfig, feature_embedding
from .postings import InvertedIndex
from .pq import PQConfig, ResidualPQ
from .store import IndexReader, IndexWriter

_RANK_MODES = ("tfidf", "pq")


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


def pq_entry_for(
    codebook: Codebook,
    pq: ResidualPQ,
    features: Sequence,
    series_length: int,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Rank-0 codewords and PQ codes of one series' features.

    Both the build-time and the incremental ``add_series`` paths encode
    through this helper (one series at a time), so a compacted index is
    bit-identical to a from-scratch build with the same frozen codebook
    and quantizer.
    """
    if not len(features):
        return None
    embedded = feature_embedding(features, series_length, codebook.config)
    assigned = codebook.assign(features, series_length, 1)[:, 0].astype(np.int64)
    codes = pq.encode(embedded - codebook.centroids[assigned])
    return assigned, codes


def _fit_pq(
    codebook: Codebook,
    features_per_series: Sequence[Sequence],
    lengths: Sequence[int],
    pq_config: PQConfig,
) -> Tuple[ResidualPQ, List[Optional[Tuple[np.ndarray, np.ndarray]]]]:
    """Fit a residual quantizer on a collection and encode every series.

    Embeddings/assignments are computed once per series and reused for
    both the training-residual collection and the per-series encode, so
    the build pays the quantization geometry exactly once.  Each series
    is encoded individually — the same per-series call shape as the
    incremental :func:`pq_entry_for` path — so incrementally added
    series round-trip bit-identically through compaction.
    """
    per_series: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
    residual_blocks: List[np.ndarray] = []
    for features, length in zip(features_per_series, lengths):
        if not len(features):
            per_series.append(None)
            continue
        embedded = feature_embedding(features, length, codebook.config)
        assigned = codebook.assign(features, length, 1)[:, 0].astype(np.int64)
        residuals = embedded - codebook.centroids[assigned]
        per_series.append((assigned, residuals))
        residual_blocks.append(residuals)
    if not residual_blocks:
        raise ValidationError(
            "cannot fit a product quantizer: the collection has no salient "
            "features"
        )
    pq = ResidualPQ(pq_config).fit(np.vstack(residual_blocks))
    entries: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [
        None if cached is None else (cached[0], pq.encode(cached[1]))
        for cached in per_series
    ]
    return pq, entries


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
    pq:
        Optional fitted :class:`~repro.indexing.pq.ResidualPQ`; required
        for ``rank_mode="pq"`` queries (approximate descriptor-distance
        ranking of the candidate set).
    rank_mode:
        Default stage-1 ranking: ``"tfidf"`` (codeword-overlap cosine
        scores) or ``"pq"`` (asymmetric PQ distances over the touched
        series, falling back to TF-IDF order for series without codes).
    index_to_engine:
        Optional slot -> engine-position mapping.  Needed when the index
        carries tombstoned slots (the engine then only stores the live
        series); ``-1`` marks dead slots.  ``None`` means identity.
    postings_cache:
        Hot decoded-postings pages kept per shard (see
        :meth:`InvertedIndex.enable_postings_cache`); ``0`` disables.
    candidate_cache:
        LRU entries of stage-1 candidate sets keyed by (query bytes,
        budget, rank mode); a repeat query skips candidate generation
        entirely.  Cleared on every mutation.  ``0`` disables.
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
        pq: Optional[ResidualPQ] = None,
        rank_mode: str = "tfidf",
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
        if rank_mode not in _RANK_MODES:
            raise ValidationError(
                f"unknown rank_mode {rank_mode!r}; choose one of {_RANK_MODES}"
            )
        if rank_mode == "pq" and (pq is None or not index.has_pq):
            raise ValidationError(
                "rank_mode='pq' needs a fitted ResidualPQ and an index built "
                "with PQ codes"
            )
        self.index = index
        self.codebook = codebook
        self.engine = engine
        self.pq = pq
        self.rank_mode = rank_mode
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
        # Build-time features, kept so save() can skip re-extraction.
        self._features: Optional[List] = None
        # Lazily built identifier set; keeps add_series O(new features)
        # instead of re-materialising the collection per insertion.
        self._identifier_set: Optional[set] = None
        # Stage-1 candidate-set LRU (see enable_caches).
        self._candidate_cache: "OrderedDict[Tuple[bytes, int, str], np.ndarray]" = (
            OrderedDict()
        )
        self._candidate_cache_capacity = 0
        self._candidate_cache_lock = threading.Lock()
        registry = telemetry if telemetry is not None else NULL_REGISTRY
        cache_requests = registry.counter(
            "repro_candidate_cache_requests_total",
            "Stage-1 candidate-set cache lookups by outcome.",
            labels=("outcome",),
        )
        self._cache_hit_counter = cache_requests.labels(outcome="hit")
        self._cache_miss_counter = cache_requests.labels(outcome="miss")
        self.enable_caches(
            postings_cache=postings_cache, candidate_cache=candidate_cache
        )

    def __len__(self) -> int:
        return self.index.num_series

    @property
    def index_to_engine(self) -> Optional[np.ndarray]:
        """The slot -> engine-position mapping (``None`` means identity).

        Exposed read-only so a derived serving snapshot can extend the
        previous snapshot's mapping in O(new slots) instead of
        recomputing it from the roster.
        """
        return self._index_to_engine

    def enable_caches(
        self,
        *,
        postings_cache: Optional[int] = None,
        candidate_cache: Optional[int] = None,
    ) -> None:
        """(Re)configure the read-path caches.

        ``postings_cache`` sets the per-shard decoded-postings page
        capacity (shard payloads are immutable, so those pages can never
        go stale and survive snapshot derivations).  ``candidate_cache``
        sets the per-searcher LRU capacity for stage-1 candidate sets;
        that cache is dropped wholesale on :meth:`add_series` and
        :meth:`compact` because any mutation can change candidate
        rankings.  ``None`` leaves a knob unchanged; ``0`` disables.
        """
        if postings_cache is not None:
            self.index.enable_postings_cache(postings_cache)
        if candidate_cache is not None:
            with self._candidate_cache_lock:
                self._candidate_cache_capacity = max(0, int(candidate_cache))
                self._candidate_cache.clear()

    def _clear_candidate_cache(self) -> None:
        with self._candidate_cache_lock:
            self._candidate_cache.clear()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_engine(
        cls,
        engine: DistanceEngine,
        *,
        config: Optional[SDTWConfig] = None,
        codebook_config: Optional[CodebookConfig] = None,
        num_shards: int = 4,
        candidate_budget: int = 100,
        features: Optional[Sequence[Sequence]] = None,
        pq_config: Optional[PQConfig] = None,
        rank_mode: str = "tfidf",
        telemetry=None,
    ) -> "IndexedSearcher":
        """Build the index layers over an engine's stored collection.

        The single construction path every builder funnels through:
        features are extracted once per stored series (the paper's
        amortisation argument), the codebook is fitted on them, and the
        bags become the inverted index.  The engine is re-used as the
        re-ranking stage.

        Parameters
        ----------
        features:
            Optional pre-extracted salient features, one list per stored
            series in engine order (e.g. from a
            :class:`~repro.retrieval.feature_store.FeatureStore`); they
            must come from the same extraction configuration.  Skips the
            per-series extraction pass entirely — this is how the
            Workspace facade builds its index without ever re-extracting.
        pq_config:
            When given, a :class:`ResidualPQ` is fitted on the rank-0
            descriptor residuals and its codes are stored alongside the
            postings, enabling ``rank_mode="pq"`` queries.
        """
        config = config if config is not None else SDTWConfig()
        if codebook_config is None:
            codebook_config = CodebookConfig.for_sdtw(config)
        stored = engine.stored_items()
        if not stored:
            raise ValidationError("cannot build an index over zero series")
        identifiers = [identifier for identifier, _, _ in stored]
        if len(set(identifiers)) != len(identifiers):
            # Persistence (and the bundled FeatureStore) key series by
            # identifier; duplicates would silently collapse on reopen.
            raise ValidationError(
                "cannot index a collection with duplicate identifiers"
            )
        if features is None:
            features = [
                extract_salient_features(values, config) for _, values, _ in stored
            ]
        else:
            features = [list(feature_list) for feature_list in features]
            if len(features) != len(stored):
                raise ValidationError(
                    "features must have one feature list per stored series"
                )
        lengths = [values.size for _, values, _ in stored]
        codebook = Codebook(codebook_config).fit(features, lengths)
        bags = [
            codebook.bag(feature_list, length)
            for feature_list, length in zip(features, lengths)
        ]
        pq: Optional[ResidualPQ] = None
        pq_entries = None
        if pq_config is not None:
            pq, pq_entries = _fit_pq(codebook, features, lengths, pq_config)
        elif rank_mode == "pq":
            raise ValidationError(
                "rank_mode='pq' requires a pq_config so the residual codes "
                "are built"
            )
        index = InvertedIndex.from_bags(
            bags, codebook.num_codewords,
            num_shards=num_shards, pq_entries=pq_entries,
        )
        searcher = cls(
            index, codebook, engine,
            config=config, candidate_budget=candidate_budget,
            pq=pq, rank_mode=rank_mode, telemetry=telemetry,
        )
        searcher._features = features
        return searcher

    @classmethod
    def build(
        cls,
        series: Sequence[Union[Sequence[float], np.ndarray]],
        identifiers: Optional[Sequence[str]] = None,
        labels: Optional[Sequence[Optional[int]]] = None,
        *,
        config: Optional[SDTWConfig] = None,
        codebook_config: Optional[CodebookConfig] = None,
        constraint: str = "fc,fw",
        num_shards: int = 4,
        candidate_budget: int = 100,
        backend: str = "serial",
        engine_kwargs: Optional[dict] = None,
        pq_config: Optional[PQConfig] = None,
        rank_mode: str = "tfidf",
    ) -> "IndexedSearcher":
        """Build a searcher (codebook + index + engine) over a collection."""
        config = config if config is not None else SDTWConfig()
        arrays = [as_series(values, f"series[{i}]") for i, values in enumerate(series)]
        if not arrays:
            raise ValidationError("cannot build an index over zero series")
        if identifiers is None:
            identifiers = [f"series-{i:05d}" for i in range(len(arrays))]
        if len(identifiers) != len(arrays):
            raise ValidationError("identifiers must have one entry per series")
        if labels is None:
            labels = [None] * len(arrays)
        if len(labels) != len(arrays):
            raise ValidationError("labels must have one entry per series")
        engine = DistanceEngine(
            constraint, config, backend=backend, **(engine_kwargs or {})
        )
        for values, identifier, label in zip(arrays, identifiers, labels):
            engine.add(values, identifier=identifier, label=label)
        return cls.from_engine(
            engine,
            config=config,
            codebook_config=codebook_config,
            num_shards=num_shards,
            candidate_budget=candidate_budget,
            pq_config=pq_config,
            rank_mode=rank_mode,
        )

    @classmethod
    def from_dataset(cls, dataset: Dataset, **kwargs) -> "IndexedSearcher":
        """Build a searcher over a data set (labels preserved)."""
        identifiers = [
            ts.identifier or f"{dataset.name}-{i:04d}"
            for i, ts in enumerate(dataset)
        ]
        return cls.build(
            dataset.values_list(), identifiers, dataset.labels, **kwargs
        )

    @classmethod
    def from_reader(
        cls,
        reader: IndexReader,
        *,
        config: Optional[SDTWConfig] = None,
        constraint: str = "fc,fw",
        candidate_budget: int = 100,
        backend: str = "serial",
        engine_kwargs: Optional[dict] = None,
        rank_mode: str = "tfidf",
    ) -> "IndexedSearcher":
        """Reopen a persisted index (with its bundled feature store).

        The feature store supplies the raw series for re-ranking, in the
        index's series order, so no re-extraction happens.  Tombstoned
        slots are skipped: the engine only stores live series and the
        searcher routes candidates through a slot mapping.
        """
        persisted = reader.extraction_config()
        if config is None:
            # Reconstruct the exact build-time configuration from the
            # manifest; only pre-fingerprint indexes fall back to defaults.
            config = persisted if persisted is not None else SDTWConfig()
        elif persisted is not None and config != persisted:
            raise ValidationError(
                "the supplied extraction configuration differs from the one "
                "this index was built with; omit `config` to use the "
                "persisted configuration"
            )
        store = reader.load_feature_store(config=config)
        engine = DistanceEngine(
            constraint, config, backend=backend, **(engine_kwargs or {})
        )
        tombstones = reader.index.tombstones
        mapping: Optional[np.ndarray] = None
        if reader.index.num_tombstones:
            mapping = np.full(reader.index.num_series, -1, dtype=np.int64)
        for position, identifier in enumerate(reader.identifiers):
            if tombstones[position]:
                continue
            if mapping is not None:
                mapping[position] = len(engine)
            engine.add(
                store.series_of(identifier),
                identifier=identifier,
                label=reader.labels[position],
            )
        return cls(
            reader.index, reader.codebook, engine,
            config=config, candidate_budget=candidate_budget,
            pq=reader.pq, rank_mode=rank_mode,
            index_to_engine=mapping,
        )

    def save(self, directory, *, feature_store=None) -> str:
        """Persist the searcher's index; returns the manifest path.

        When *feature_store* is omitted one is assembled from the
        engine's stored series (re-using build-time features when this
        searcher was created by :meth:`build`).  Delta shards appended
        by :meth:`add_series` are persisted as-is (no forced
        compaction).
        """
        if self.index.num_tombstones:
            raise ValidationError(
                "cannot save a searcher over tombstoned slots; run compact() "
                "first (or persist through the owning Workspace)"
            )
        stored = self.engine.stored_items()
        if feature_store is None:
            from ..retrieval.feature_store import FeatureStore

            feature_store = FeatureStore(config=self.config)
            build_features = self._features
            for position, (identifier, values, _) in enumerate(stored):
                feature_store.add_series(
                    identifier,
                    values,
                    features=(
                        build_features[position]
                        if build_features is not None else None
                    ),
                )
        return IndexWriter(directory).write(
            self.index,
            self.codebook,
            [identifier for identifier, _, _ in stored],
            [label for _, _, label in stored],
            feature_store=feature_store,
            extraction_config=self.config,
            pq=self.pq,
        )

    @classmethod
    def open(cls, directory, **kwargs) -> "IndexedSearcher":
        """Open a persisted index directory (memory-mapped shards)."""
        mmap = kwargs.pop("mmap", True)
        return cls.from_reader(IndexReader.open(directory, mmap=mmap), **kwargs)

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def add_series(
        self,
        values: Union[Sequence[float], np.ndarray],
        identifier: Optional[str] = None,
        label: Optional[int] = None,
    ) -> str:
        """Index one new series incrementally; returns its identifier.

        Cost is O(new features): the series is added to the engine, its
        features are extracted, quantized against the *frozen* codebook
        (and PQ, when present) and appended to the index as a delta
        shard — no codebook refit, no postings rebuild.  Run
        :meth:`compact` periodically to fold deltas back into the base
        shards with fresh IDF statistics.
        """
        array = as_series(values, "values")
        if self._identifier_set is None:
            self._identifier_set = {
                stored_id for stored_id, _, _ in self.engine.stored_items()
            }
        if identifier is not None and str(identifier) in self._identifier_set:
            raise ValidationError(
                f"identifier {identifier!r} is already indexed"
            )
        identifier = self.engine.add(array, identifier=identifier, label=label)
        self._identifier_set.add(identifier)
        features = extract_salient_features(array, self.config)
        bag = self.codebook.bag(features, array.size)
        pq_entry = None
        if self.pq is not None:
            pq_entry = pq_entry_for(self.codebook, self.pq, features, array.size)
        self.index.add_series(bag, pq_entry)
        self._clear_candidate_cache()
        if self._index_to_engine is not None:
            self._index_to_engine = np.append(
                self._index_to_engine, len(self.engine) - 1
            )
        if self._features is not None:
            self._features.append(list(features))
        return identifier

    def compact(self, *, num_shards: Optional[int] = None) -> np.ndarray:
        """Fold delta shards (and tombstones) into a fresh base shard set.

        Returns the old-slot -> new-slot mapping.  The compacted
        postings are bit-identical to a from-scratch
        :meth:`InvertedIndex.from_bags` build over the surviving bags
        under the same codebook/PQ, and exact re-rank results are
        unchanged.
        """
        if num_shards is None:
            num_shards = len(self.index.shards)
        compacted, slot_map = self.index.compact(num_shards=num_shards)
        # The compacted index is a fresh shard set: carry the postings
        # cache capacity over (pages rebuild lazily) and drop the
        # candidate LRU (slot renumbering invalidates every entry).
        compacted.enable_postings_cache(self.index._postings_cache_capacity)
        self.index = compacted
        self._clear_candidate_cache()
        if self._index_to_engine is not None:
            self._index_to_engine = self._index_to_engine[slot_map >= 0]
        return slot_map

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #
    def _slots_to_engine(self, slots: np.ndarray) -> np.ndarray:
        """Translate index slots into engine positions (drop dead slots)."""
        if self._index_to_engine is None:
            return slots
        mapped = self._index_to_engine[slots]
        return mapped[mapped >= 0]

    def _resolve_rank_mode(self, rank_mode: Optional[str]) -> str:
        if rank_mode is None:
            return self.rank_mode
        if rank_mode not in _RANK_MODES:
            raise ValidationError(
                f"unknown rank_mode {rank_mode!r}; choose one of {_RANK_MODES}"
            )
        if rank_mode == "pq" and (self.pq is None or not self.index.has_pq):
            raise ValidationError(
                "rank_mode='pq' needs a fitted ResidualPQ and an index built "
                "with PQ codes"
            )
        return rank_mode

    def _pq_candidate_slots(
        self, features: Sequence, series_length: int, limit: int
    ) -> np.ndarray:
        """Stage 1 in PQ mode: rank touched series by asymmetric distance.

        Every query feature probes its ``query_multiplicity`` nearest
        codewords, builds the asymmetric distance table of its residual
        and takes the minimum approximate distance to any stored rank-0
        feature of each candidate in those cells (features that match
        nothing for a candidate contribute that feature's worst observed
        distance, so candidates covering more of the query rank
        strictly better).  The candidate universe is the TF-IDF touched
        set — PQ re-scores it, it never shrinks it — and the tail is
        padded exactly like TF-IDF ranking, so ``limit >= num_live``
        still degrades to the full live collection.
        """
        index, codebook, pq = self.index, self.codebook, self.pq
        bag = codebook.bag(features, series_length, query=True)
        if not len(features):
            return index.candidates(bag, limit)
        _, touched = index.scores(bag)
        touched_slots = np.nonzero(touched)[0]
        if not touched_slots.size:
            return index.candidates(bag, limit)
        embedded = feature_embedding(features, series_length, codebook.config)
        probes = codebook.assign(
            features, series_length, codebook.config.query_multiplicity
        )
        totals = np.zeros(index.num_series)
        feature_min = np.empty(index.num_series)
        for row in range(probes.shape[0]):
            feature_min.fill(np.inf)
            for cell in probes[row]:
                cell = int(cell)
                table = pq.adc_table(embedded[row] - codebook.centroids[cell])
                for series, codes in index.pq_postings_segments(cell):
                    np.minimum.at(
                        feature_min, series, pq.adc_scores(codes, table)
                    )
            matched = feature_min[touched_slots]
            finite = np.isfinite(matched)
            if not finite.any():
                continue  # feature matches no candidate: uninformative
            miss = float(matched[finite].max())
            totals[touched_slots] += np.where(finite, matched, miss)
        order = np.lexsort((touched_slots, totals[touched_slots]))
        ranked = touched_slots[order]
        if ranked.size >= limit:
            return ranked[:limit]
        rest = np.nonzero(~touched & ~index.tombstones)[0]
        return np.concatenate([ranked, rest[: limit - ranked.size]])

    def generate_candidates(
        self,
        values: Union[Sequence[float], np.ndarray],
        limit: Optional[int] = None,
        *,
        rank_mode: Optional[str] = None,
    ) -> np.ndarray:
        """Stage 1 alone: the ranked candidate indices for a query.

        Returned indices are engine positions (identical to index slots
        unless the index carries tombstoned slots).

        With an enabled candidate cache (see :meth:`enable_caches`) a
        byte-identical repeat of a recent (query, budget, rank-mode)
        triple returns the memoised candidate set without touching the
        postings; the cache is cleared on every index mutation, so a
        hit is always exactly what a fresh stage 1 would produce.
        """
        return self._generate(values, limit, rank_mode)[0]

    def _generate(
        self,
        values: Union[Sequence[float], np.ndarray],
        limit: Optional[int],
        rank_mode: Optional[str],
    ) -> Tuple[np.ndarray, Optional[List[SalientFeature]]]:
        """Stage 1: the candidates and the query features it extracted.

        The features are ``None`` on a candidate-cache hit, which extracts
        nothing.
        """
        query = as_series(values, "query")
        limit = limit if limit is not None else self.candidate_budget
        limit = check_int_at_least(limit, 1, "limit")
        mode = self._resolve_rank_mode(rank_mode)
        trace = current_trace()
        started = time.perf_counter() if trace is not None else 0.0
        cache_key: Optional[Tuple[bytes, int, str]] = None
        if self._candidate_cache_capacity:
            cache_key = (query.tobytes(), limit, mode)
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
        if mode == "pq":
            slots = self._pq_candidate_slots(features, query.size, limit)
        else:
            bag = self.codebook.bag(features, query.size, query=True)
            slots = self.index.candidates(bag, limit)
        candidates = self._slots_to_engine(slots)
        if trace is not None:
            trace.add_stage(
                "candidate_rank",
                time.perf_counter() - extracted,
                rank_mode=mode,
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
        rank_mode: Optional[str] = None,
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
        rank_mode:
            Stage-1 ranking override: ``"tfidf"`` or ``"pq"`` (default:
            the searcher's configured mode).
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
        candidate_set, features = self._generate(values, candidates, rank_mode)
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

    def batch_query(
        self,
        queries: Sequence[Union[Sequence[float], np.ndarray]],
        k: int = 10,
        *,
        candidates: Optional[int] = None,
        exclude_identifiers: Optional[Sequence[Optional[str]]] = None,
        rank_mode: Optional[str] = None,
    ) -> List[IndexedSearchResult]:
        """Indexed k-NN for many queries (results in query order)."""
        if exclude_identifiers is not None and len(exclude_identifiers) != len(queries):
            raise ValidationError(
                "exclude_identifiers must have one entry per query"
            )
        return [
            self.query(
                values, k,
                candidates=candidates,
                exclude_identifier=(
                    exclude_identifiers[qi] if exclude_identifiers else None
                ),
                rank_mode=rank_mode,
            )
            for qi, values in enumerate(queries)
        ]

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
        rank_mode: Optional[str] = None,
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
                values, k, candidates=budget, exclude_identifier=exclude,
                rank_mode=rank_mode,
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
    "pq_entry_for",
]
