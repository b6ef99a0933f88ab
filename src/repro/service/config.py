"""Declarative configuration of the :class:`~repro.service.Workspace`.

Before the service layer, every subsystem grew its own construction
ritual: :class:`~repro.engine.DistanceEngine` took backend/pruning
kwargs, :class:`~repro.indexing.IndexedSearcher` took codebook/shard
kwargs, :class:`~repro.streaming.StreamMonitor` took its own switches,
and only the extraction configuration (:class:`~repro.core.config
.SDTWConfig`) was persisted anywhere.  :class:`WorkspaceConfig` gathers
all of it into one declarative object with a full ``to_dict`` /
``from_dict`` round trip, so a workspace manifest records *everything*
needed to reopen the workspace and serve bit-identical results.

Sections
--------
``sdtw``
    The paper pipeline configuration (scale space, descriptors,
    matching, band widths) shared by every subsystem.
``engine``
    The exact re-ranking engine: constraint family, execution backend,
    cascade switches.
``index``
    The optional inverted index: codebook size, shard count, candidate
    budget, build seed.
``serving``
    The concurrent request path: micro-batching of simultaneous
    ``query`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.config import SDTWConfig, _DictRoundTrip
from ..engine.backends import BACKENDS
from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class EngineConfig(_DictRoundTrip):
    """Exact-scan engine settings (see :class:`repro.engine.DistanceEngine`).

    Attributes
    ----------
    constraint:
        Refinement constraint family: ``"full"``, ``"fc,fw"``,
        ``"itakura"``, or any sDTW adaptive family (``"ac,aw"``, ...).
    backend:
        Execution backend: ``"serial"``, ``"vectorized"`` or
        ``"multiprocessing"``.
    num_workers:
        Worker processes for the multiprocessing backend (``None``: CPU
        count).
    prune:
        Master switch for the LB_Kim / LB_Keogh cascade stages.
    early_abandon:
        Whether refinements stop once they provably exceed the running
        k-th best distance.
    batch_size:
        Chunk size of the vectorised refinement stage.
    itakura_max_slope:
        Slope parameter of the ``"itakura"`` constraint.
    """

    constraint: str = "fc,fw"
    backend: str = "serial"
    num_workers: Optional[int] = None
    prune: bool = True
    early_abandon: bool = True
    batch_size: int = 32
    itakura_max_slope: float = 2.0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1 when given")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.itakura_max_slope <= 1.0:
            raise ConfigurationError("itakura_max_slope must be greater than 1")


@dataclass(frozen=True)
class IndexConfig(_DictRoundTrip):
    """Inverted-index settings (see :mod:`repro.indexing`).

    Attributes
    ----------
    num_codewords:
        Codebook size of the k-means quantizer.
    num_shards:
        Number of postings shards the index is persisted as.
    candidate_budget:
        Default number of candidates generated per indexed query.
    seed:
        Seed of the deterministic codebook fit (recorded so a rebuild
        reproduces the same index bit for bit).
    mmap:
        Whether reopened shards are served memory-mapped (lock-free
        reads that fault pages in on demand) or loaded fully into RAM.
    incremental:
        Keep the index fresh across :meth:`Workspace.add` /
        :meth:`Workspace.remove` by appending delta shards and
        tombstones (O(new features) per mutation) instead of marking it
        stale until the next full rebuild.
    max_delta_shards:
        Auto-compaction threshold: once an incremental update would
        leave more than this many delta shards, the workspace folds
        them back into the base shards.
    pq:
        Fit a :class:`~repro.indexing.pq.ResidualPQ` at build time and
        store descriptor-residual codes alongside the postings (enables
        ``rank_mode="pq"`` and the compression reported by ``stats``).
    pq_subquantizers:
        Sub-quantizers of the residual PQ (stored bytes per feature).
    pq_bits:
        Bits per PQ sub-quantizer code (sub-codebook size ``2**bits``).
    rank_mode:
        Default stage-1 candidate ranking for indexed queries:
        ``"tfidf"`` (codeword-overlap cosine) or ``"pq"`` (asymmetric
        PQ descriptor distances; requires ``pq=True``).
    postings_cache:
        Hot postings pages kept decoded per shard (codeword -> posting
        arrays with weights already converted to float64).  Serving
        shards are immutable, so cached pages stay valid across snapshot
        derivations and index clones.  ``0`` disables the cache.
    candidate_cache:
        LRU entries of quantised-query candidate sets kept per serving
        searcher (keyed by query bytes, budget and rank mode).  A repeat
        query skips stage 1 entirely.  ``0`` disables the cache.
    """

    num_codewords: int = 256
    num_shards: int = 4
    candidate_budget: int = 100
    seed: int = 7
    mmap: bool = True
    incremental: bool = True
    max_delta_shards: int = 32
    pq: bool = True
    pq_subquantizers: int = 8
    pq_bits: int = 8
    rank_mode: str = "tfidf"
    postings_cache: int = 256
    candidate_cache: int = 128

    def __post_init__(self) -> None:
        if self.num_codewords < 1:
            raise ConfigurationError("num_codewords must be >= 1")
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if self.candidate_budget < 1:
            raise ConfigurationError("candidate_budget must be >= 1")
        if self.max_delta_shards < 1:
            raise ConfigurationError("max_delta_shards must be >= 1")
        if self.pq_subquantizers < 1:
            raise ConfigurationError("pq_subquantizers must be >= 1")
        if not 1 <= self.pq_bits <= 8:
            raise ConfigurationError("pq_bits must be between 1 and 8")
        if self.rank_mode not in ("tfidf", "pq"):
            raise ConfigurationError(
                f"rank_mode must be 'tfidf' or 'pq', got {self.rank_mode!r}"
            )
        if self.rank_mode == "pq" and not self.pq:
            raise ConfigurationError(
                "rank_mode='pq' requires pq=True (codes must be built)"
            )
        if self.postings_cache < 0:
            raise ConfigurationError("postings_cache must be >= 0")
        if self.candidate_cache < 0:
            raise ConfigurationError("candidate_cache must be >= 0")


@dataclass(frozen=True)
class ServingConfig(_DictRoundTrip):
    """Concurrent request-path settings.

    Attributes
    ----------
    micro_batch:
        Coalesce concurrent exact ``query`` calls into one engine batch
        (:meth:`repro.engine.DistanceEngine.knn`) instead of running each
        caller's cascade independently.  Results are bit-identical either
        way; batching trades a small queueing delay for shared batch-DP
        work and is worthwhile under multi-threaded load.
    batch_window_ms:
        How long the first request of a batch waits once at least one
        companion is queued (a request that stays alone never waits; see
        :class:`~repro.service.batching.MicroBatcher`).
    max_batch:
        Requests per batch before the window closes early.
    incremental_snapshots:
        Derive the serving snapshot from the previous one after a
        mutation (shared prepared segments, appended series, query-time
        tombstones — O(new) instead of an O(N) engine rebuild).
        ``False`` restores the PR 5 behaviour of rebuilding the snapshot
        from scratch on the first query after any mutation; results are
        bit-identical either way.
    telemetry:
        Collect metrics, per-query traces and the structured event log
        (see :mod:`repro.telemetry`).  When ``False`` the workspace
        holds the no-op :data:`~repro.telemetry.NULL_REGISTRY`, queries
        carry no trace, and the instrumented paths cost one empty method
        call — the overhead of the enabled path is itself gated at <= 5%
        by ``benchmarks/bench_workspace_serving.py --telemetry-guard``.
        The event log stays on while ``slow_query_threshold`` is armed.
    slow_query_threshold:
        Queries whose end-to-end wall time reaches this many seconds
        emit one ``slow_query`` event (component ``workspace``, level
        ``warn``) carrying the query's full
        :class:`~repro.telemetry.QueryTrace` (``None`` with telemetry
        off).  The event lands in the event ring, read back by
        :meth:`Workspace.slow_queries`, and for path-backed workspaces
        in ``events.jsonl``.  ``None`` disables capture; ``0.0``
        captures every query (the CI smoke configuration).  Applies to
        exact, indexed and micro-batched queries alike.
    """

    micro_batch: bool = False
    batch_window_ms: float = 2.0
    max_batch: int = 32
    incremental_snapshots: bool = True
    telemetry: bool = True
    slow_query_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ConfigurationError("batch_window_ms must be non-negative")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.slow_query_threshold is not None and self.slow_query_threshold < 0:
            raise ConfigurationError(
                "slow_query_threshold must be >= 0 seconds when given"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ServingConfig":
        """Rebuild a configuration written by :meth:`to_dict`.

        Manifests written before the retention settings became
        constants still list them; exactly those keys are dropped, and
        any other unknown key still raises.
        """
        return cls(**{
            key: value for key, value in data.items()
            if key not in _RETIRED_SERVING_KEYS
        })


# Retention settings that became constants of repro.service.workspace and
# repro.telemetry.events; older manifests still carry them.
_RETIRED_SERVING_KEYS = frozenset((
    "trace_ring", "event_log_ring", "event_log_file", "event_log_max_bytes",
    "slow_query_ring",
))


@dataclass(frozen=True)
class WorkspaceConfig(_DictRoundTrip):
    """Full declarative configuration of a :class:`~repro.service.Workspace`.

    Attributes
    ----------
    sdtw:
        Extraction / band configuration shared by every subsystem.
    engine:
        Exact-scan engine settings.
    index:
        Inverted-index settings.
    serving:
        Concurrent request-path settings.
    default_k:
        Neighbours returned when ``query`` is called without ``k``.
    """

    sdtw: SDTWConfig = field(default_factory=SDTWConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    default_k: int = 10

    def __post_init__(self) -> None:
        if self.default_k < 1:
            raise ConfigurationError("default_k must be >= 1")

    @classmethod
    def from_dict(cls, data: dict) -> "WorkspaceConfig":
        """Rebuild a configuration written by :meth:`to_dict`."""
        payload = dict(data)
        return cls(
            sdtw=SDTWConfig.from_dict(payload.pop("sdtw", {})),
            engine=EngineConfig.from_dict(payload.pop("engine", {})),
            index=IndexConfig.from_dict(payload.pop("index", {})),
            serving=ServingConfig.from_dict(payload.pop("serving", {})),
            **payload,
        )


DEFAULT_WORKSPACE_CONFIG = WorkspaceConfig()
"""Module-level default workspace configuration."""
