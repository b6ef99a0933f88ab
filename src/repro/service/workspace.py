"""The :class:`Workspace`: one stateful facade over batch, indexed and
streaming sDTW.

Before this layer the library had four parallel front doors —
:class:`~repro.core.sdtw.SDTW` for pairwise distances,
:class:`~repro.engine.DistanceEngine` for exact batch k-NN,
:class:`~repro.indexing.IndexedSearcher` for sublinear indexed search and
:class:`~repro.streaming.StreamMonitor` for online monitoring — each with
its own construction ritual and on-disk artefacts.  A ``Workspace`` owns
all of them behind one object model and one versioned directory layout::

    workspace-dir/
        workspace.json    # manifest: format/version, WorkspaceConfig,
                          # series roster (insertion order + labels),
                          # index state
        store.npz         # FeatureStore: raw series + salient features
        index/            # optional inverted index (IndexWriter layout:
                          # manifest.json, codebook.npz, mmappable shards;
                          # no second copy of the feature store)

Lifecycle::

    ws = Workspace.create("my-ws")          # or Workspace() for in-memory
    ws.add(series, identifier="a")          # features extracted once
    ws.build_index()                        # optional sublinear path
    ws.query(q, k=5, mode="auto")           # exact | indexed | auto
    ws.pairwise(x, y)                       # one sDTW distance
    ws.stream(pattern, threshold=2.0)       # online monitoring
    ws.close()                              # persists mutations

    ws = Workspace.open("my-ws")            # serves without re-extraction

Results are bit-identical to the direct subsystem calls: ``exact`` mode
*is* the engine cascade, ``indexed`` mode *is* the two-stage searcher,
and ``auto`` just picks between them (indexed when a fresh index exists).

Concurrency model
-----------------
Mutations (``add`` / ``add_batch`` / ``build_index`` / ``save``) take an
``RLock``.  Queries never take it for the duration of a scan: they grab
the current immutable *serving snapshot* (a prepared engine plus the
optional searcher, rebuilt lazily after mutations) and run on it, so
readers are lock-free once the snapshot exists — index shards are
memory-mapped, and the engine's prepared caches are never mutated by a
query.  A query racing a mutation simply serves the snapshot taken
before the mutation; it can never observe a half-added series.
Each exact query runs on its own caller's thread through the engine's
configured backend; under concurrent exact load the ``vectorized``
backend with a bounded number of in-flight queries (``repro serve
--max-inflight``) is the throughput configuration.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_series, check_int_at_least
from ..core.sdtw import SDTW, SDTWResult
from ..datasets.base import Dataset
from ..engine import BatchKNNResult, DistanceEngine
from ..engine.engine import EngineHit
from ..engine.stats import EngineStats
from ..exceptions import DatasetError, ValidationError, WorkspaceError
from ..indexing import (
    CodebookConfig,
    IndexReader,
    IndexWriter,
    IndexedSearcher,
)
from ..retrieval.feature_store import FeatureStore
from ..streaming import StreamMatch, StreamMonitor
from ..telemetry.events import NULL_EVENT_LOG, EventLog, json_safe
from ..telemetry.registry import NULL_REGISTRY, MetricsRegistry
from ..telemetry.trace import QueryTrace, TraceRing, trace_scope
from .config import WorkspaceConfig

MANIFEST_NAME = "workspace.json"
STORE_NAME = "store.npz"
INDEX_DIR_NAME = "index"
EVENTS_NAME = "events.jsonl"
FORMAT_NAME = "repro-workspace"
FORMAT_VERSION = 1
FLIGHT_RECORD_FORMAT = "repro-flight-record"
FLIGHT_RECORD_VERSION = 1

#: Recent query traces kept for :meth:`Workspace.recent_traces`.
TRACE_RING = 64
#: Recent events kept in memory for :meth:`Workspace.recent_events`, the
#: flight record and :meth:`Workspace.slow_queries`; a path-backed
#: workspace also appends every event to the rotated ``events.jsonl``.
EVENT_RING = 512

_MODES = ("auto", "exact", "indexed")

#: The versioned wire schema emitted by :meth:`WorkspaceQueryResult.to_dict`
#: and consumed by :meth:`WorkspaceQueryResult.from_dict` — the one
#: serialization shared by the HTTP server (``repro serve``), the remote
#: client (:class:`repro.server.RemoteWorkspace`) and the CLI
#: (``workspace query --format json``).  Bump ``WIRE_VERSION`` on any
#: incompatible change; readers reject payloads newer than they are.
WIRE_FORMAT = "repro-query-result"
WIRE_VERSION = 1


@dataclass(frozen=True, slots=True)
class WorkspaceQueryResult:
    """Unified result of one :meth:`Workspace.query` call.

    Attributes
    ----------
    hits:
        The k nearest stored series (identifier, stored index, distance,
        label), ordered by distance.
    mode:
        The mode that actually ran: ``"exact"`` or ``"indexed"``.
    requested_mode:
        The mode the caller asked for (``"auto"`` resolves to one of the
        above).
    k:
        Neighbours requested.
    collection_size:
        Stored series in the snapshot that served the query.
    candidates_generated:
        Candidates the index handed to the exact re-rank (equals
        ``collection_size`` in exact mode) — together with
        :attr:`scan_fraction` this is the recall-estimate metadata: an
        indexed query is exact *within* its candidate set, so the scanned
        fraction bounds how much of the exhaustive ranking it can miss.
    generation_seconds:
        Stage-1 wall-clock (candidate generation; zero in exact mode).
    rerank_seconds:
        Stage-2 wall-clock (the engine cascade).
    stats:
        Per-stage engine work accounting (bounds computed, candidates
        pruned, cells filled, phase seconds).
    trace:
        Structured per-stage :class:`~repro.telemetry.QueryTrace`
        (``None`` when ``ServingConfig.telemetry`` is off).  Stage
        seconds sum exactly to the trace's measured end-to-end wall
        time; the same trace is retained in the workspace's recent-trace
        ring.
    snapshot_version:
        Monotonic version of the serving snapshot that answered the
        query (0 when unknown, e.g. results deserialized from an old
        wire payload).  A client seeing the number move knows a
        mutation was folded in between two reads.
    shard_versions:
        Per-shard ``(shard_name, snapshot_version)`` pairs when the
        query was scatter-gathered across a
        :class:`~repro.server.ShardedWorkspace`; ``None`` for
        single-workspace queries.
    failed_shards:
        Shards that failed to answer a degraded (partial) scatter-gather
        read; empty for complete results.
    """

    hits: Tuple[EngineHit, ...]
    mode: str
    requested_mode: str
    k: int
    collection_size: int
    candidates_generated: int
    generation_seconds: float
    rerank_seconds: float
    stats: EngineStats
    trace: Optional[QueryTrace] = None
    snapshot_version: int = 0
    shard_versions: Optional[Tuple[Tuple[str, int], ...]] = None
    failed_shards: Tuple[str, ...] = ()

    @property
    def ids(self) -> Tuple[str, ...]:
        """Identifiers of the hits, in rank order."""
        return tuple(hit.identifier for hit in self.hits)

    @property
    def indices(self) -> Tuple[int, ...]:
        """Stored positions of the hits, in rank order."""
        return tuple(hit.index for hit in self.hits)

    @property
    def distances(self) -> Tuple[float, ...]:
        """Distances of the hits, in rank order."""
        return tuple(hit.distance for hit in self.hits)

    @property
    def labels(self) -> List[Optional[int]]:
        """Labels of the hits, in rank order."""
        return [hit.label for hit in self.hits]

    @property
    def elapsed_seconds(self) -> float:
        return self.generation_seconds + self.rerank_seconds

    @property
    def scan_fraction(self) -> float:
        """Fraction of the collection the exact cascade considered."""
        if self.collection_size == 0:
            return 1.0
        return self.candidates_generated / float(self.collection_size)

    def timings(self) -> Dict[str, float]:
        """Per-stage wall-clock breakdown of the query."""
        return {
            "generation_seconds": self.generation_seconds,
            "bound_seconds": self.stats.bound_seconds,
            "extract_seconds": self.stats.extract_seconds,
            "matching_seconds": self.stats.matching_seconds,
            "dp_seconds": self.stats.dp_seconds,
            "rerank_seconds": self.rerank_seconds,
            "elapsed_seconds": self.elapsed_seconds,
        }

    # ------------------------------------------------------------------ #
    # Wire schema (format "repro-query-result")
    # ------------------------------------------------------------------ #
    def to_dict(self, *, include_trace: bool = True) -> Dict[str, object]:
        """The versioned wire representation of this result.

        The payload round-trips through ``json.dumps``/``loads`` and
        :meth:`from_dict` bit-identically: identifiers, indices,
        distances and labels come back exactly (Python's JSON float
        serialization is shortest-round-trip), raw timings and the
        engine's work accounting are carried verbatim, and derived
        quantities (``elapsed_seconds``, prune rates) are recomputed by
        the reader rather than trusted from the wire.  ``include_trace=
        False`` strips the (comparatively bulky) trace attachment; the
        HTTP server maps ``?trace=0/1`` onto it.
        """
        hits = [
            {
                "identifier": hit.identifier,
                "index": hit.index,
                "distance": hit.distance,
                "label": hit.label,
            }
            for hit in self.hits
        ]
        shard_versions: Optional[List[List[object]]] = None
        if self.shard_versions is not None:
            shard_versions = [
                [name, version] for name, version in self.shard_versions
            ]
        trace = self.trace if include_trace else None
        return {
            "format": WIRE_FORMAT,
            "version": WIRE_VERSION,
            "mode": self.mode,
            "requested_mode": self.requested_mode,
            "k": self.k,
            "collection_size": self.collection_size,
            "candidates_generated": self.candidates_generated,
            "snapshot_version": self.snapshot_version,
            "shard_versions": shard_versions,
            "failed_shards": list(self.failed_shards),
            "hits": hits,
            "timings": {
                "generation_seconds": self.generation_seconds,
                "rerank_seconds": self.rerank_seconds,
                "elapsed_seconds": self.elapsed_seconds,
            },
            "stats": self.stats.to_dict(),
            "trace": None if trace is None else trace.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "WorkspaceQueryResult":
        """Rebuild a result from its :meth:`to_dict` wire payload.

        Rejects payloads that are not ``repro-query-result`` documents
        or that were written by a newer wire version than this reader
        supports (unknown *extra* keys within the supported version are
        ignored, so additive evolution does not break old clients).
        """
        if not isinstance(payload, dict):
            raise ValidationError(
                f"query-result payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        if payload.get("format") != WIRE_FORMAT:
            raise ValidationError(
                f"payload format {payload.get('format')!r} is not "
                f"{WIRE_FORMAT!r}"
            )
        version = int(payload.get("version", 0))
        if version > WIRE_VERSION:
            raise ValidationError(
                f"query-result wire version {version} is newer than this "
                f"reader (supports <= {WIRE_VERSION})"
            )
        timings = payload.get("timings") or {}
        if not isinstance(timings, dict):
            raise ValidationError("'timings' must be a JSON object")
        raw_hits = payload.get("hits")
        if not isinstance(raw_hits, list):
            raise ValidationError("'hits' must be a JSON array")
        hits = tuple(
            EngineHit(
                identifier=str(entry["identifier"]),
                index=int(entry["index"]),
                distance=float(entry["distance"]),
                label=(
                    None if entry.get("label") is None
                    else int(entry["label"])
                ),
            )
            for entry in raw_hits
        )
        raw_shards = payload.get("shard_versions")
        shard_versions: Optional[Tuple[Tuple[str, int], ...]] = None
        if raw_shards is not None:
            shard_versions = tuple(
                (str(name), int(version)) for name, version in raw_shards
            )
        trace_payload = payload.get("trace")
        try:
            return cls(
                hits=hits,
                mode=str(payload["mode"]),
                requested_mode=str(payload.get("requested_mode",
                                               payload["mode"])),
                k=int(payload["k"]),
                collection_size=int(payload["collection_size"]),
                candidates_generated=int(
                    payload.get("candidates_generated", 0)
                ),
                generation_seconds=float(
                    timings.get("generation_seconds", 0.0)
                ),
                rerank_seconds=float(timings.get("rerank_seconds", 0.0)),
                stats=EngineStats.from_dict(payload.get("stats") or {}),
                trace=(
                    None if trace_payload is None
                    else QueryTrace.from_dict(trace_payload)
                ),
                snapshot_version=int(payload.get("snapshot_version", 0)),
                shard_versions=shard_versions,
                failed_shards=tuple(
                    str(name) for name in payload.get("failed_shards") or ()
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed query-result payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class _Snapshot:
    """An immutable serving state: prepared engine + optional searcher.

    ``size`` counts *live* series (tombstoned engine slots excluded);
    ``engine_to_live`` maps engine slots to live ranks (``None`` when
    they coincide, i.e. the engine has no tombstones) — hit indices are
    remapped through it so callers always see positions into the live
    roster, whichever snapshot lineage served them.  ``index_generation``
    records which index slot-numbering epoch the searcher's slot mapping
    was built against, so a derived snapshot knows whether it may extend
    the mapping in place of rebuilding it.
    """

    engine: DistanceEngine
    searcher: Optional[IndexedSearcher]
    size: int
    engine_to_live: Optional[np.ndarray] = None
    index_generation: Optional[int] = None
    #: Monotonic per-workspace publish counter, stamped at publish time
    #: (``dataclasses.replace`` builds the stamped instance — the
    #: snapshot itself stays immutable).  Serving responses carry it so
    #: network clients can observe snapshot turnover.
    version: int = 0


@dataclass
class _PersistedIndex:
    """The index layers kept across snapshot rebuilds.

    ``slots`` names the identifier behind every index slot (live *and*
    tombstoned, in slot order); incremental updates never mutate an
    existing instance — they swap in a fresh one built around a cloned
    :class:`InvertedIndex`, so serving snapshots keep reading an
    immutable shard set.  ``generation`` changes whenever slot numbering
    changes (full rebuilds and compactions); within one generation slots
    are append-only, which is what lets derived snapshots extend the
    previous slot mapping instead of recomputing it.
    """

    index: object  # InvertedIndex
    codebook: object  # Codebook
    slots: List[str] = field(default_factory=list)
    stale: bool = False
    generation: int = 0


class Workspace:
    """A stateful service facade over one collection of time series.

    Construct through :meth:`create` (new directory), :meth:`open`
    (existing directory) or ``Workspace()`` / :meth:`in_memory`
    (ephemeral, nothing persisted).

    Observability: each workspace owns a
    :class:`~repro.telemetry.MetricsRegistry` (see :mod:`repro.telemetry`)
    aggregating query latency, cascade prune rates, cache hit rates and
    write-path activity, exported via :meth:`metrics_to_dict` /
    :meth:`metrics_prometheus`; every query additionally carries a
    per-stage :class:`~repro.telemetry.QueryTrace` on its result and in
    the :meth:`recent_traces` ring.  ``ServingConfig.telemetry`` turns
    all of it off at near-zero cost.

    Parameters
    ----------
    config:
        The declarative :class:`~repro.service.config.WorkspaceConfig`;
        defaults apply when omitted.
    """

    def __init__(self, config: Optional[WorkspaceConfig] = None) -> None:
        self.path: Optional[str] = None
        self.config = config if config is not None else WorkspaceConfig()
        self._lock = threading.RLock()
        self._store = FeatureStore(config=self.config.sdtw)
        self._identifiers: List[str] = []
        self._labels: List[Optional[int]] = []
        self._index: Optional[_PersistedIndex] = None
        self._serving: Optional[_Snapshot] = None
        # Snapshot-derivation state: the last snapshot that served (kept
        # as the derivation base after ``_serving`` is invalidated) and
        # the mutation log accumulated since it was built.
        self._previous: Optional[_Snapshot] = None
        self._pending: List[Tuple[str, str]] = []
        self._snapshot_version = 0
        self._monitor: Optional[StreamMonitor] = None
        self._dirty = False
        self._closed = False
        # Telemetry: one registry per workspace, decided once here — the
        # null registry makes every instrumented path a no-op when
        # telemetry is off (see repro.telemetry).
        self._metrics: MetricsRegistry = (
            MetricsRegistry() if self.config.serving.telemetry else NULL_REGISTRY
        )
        self._traces = TraceRing(TRACE_RING)
        # The structured event log follows the same master switch: every
        # state transition (mutations, snapshot derivations, compactions)
        # emits one event; queries emit none unless slow.  An armed
        # slow-query threshold keeps the log on, because its slow_query
        # events are the slow-query record.
        self._events: EventLog = (
            EventLog(EVENT_RING)
            if self.config.serving.telemetry
            or self.config.serving.slow_query_threshold is not None
            else NULL_EVENT_LOG
        )
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Pre-register the metric catalogue and bind hot-path handles.

        Families are created up front so an export is never empty (every
        documented series renders, at zero, before the first query); hot
        paths then update pre-bound children instead of doing registry
        lookups.  With telemetry off every handle is the shared no-op
        child of :data:`~repro.telemetry.NULL_REGISTRY`.
        """
        m = self._metrics
        self._m_queries = m.counter(
            "repro_queries_total", "Queries served, by executed mode.",
            labels=("mode",),
        )
        self._m_query_seconds = m.histogram(
            "repro_query_seconds",
            "End-to-end query wall time, by executed mode.",
            labels=("mode",),
        )
        self._m_stage_seconds = m.histogram(
            "repro_query_stage_seconds",
            "Per-stage query wall time (cascade + candidate generation).",
            labels=("stage",),
        )
        self._m_candidates = m.counter(
            "repro_cascade_candidates_total",
            "Candidate pairs entering the exact cascade.",
        )
        self._m_pruned = m.counter(
            "repro_cascade_pruned_total",
            "Candidates eliminated by each lower-bound stage.",
            labels=("stage",),
        )
        self._m_dtw = m.counter(
            "repro_cascade_dtw_total",
            "DTW refinements by outcome (completed / abandoned early).",
            labels=("outcome",),
        )
        self._m_cells_filled = m.counter(
            "repro_cascade_cells_filled_total",
            "DTW grid cells actually evaluated.",
        )
        self._m_cells_total = m.counter(
            "repro_cascade_cells_total",
            "DTW grid cells a full scan would have evaluated.",
        )
        self._m_snapshots = m.counter(
            "repro_snapshots_total",
            "Serving snapshots by construction kind (derived / rebuilt).",
            labels=("kind",),
        )
        self._m_mutations = m.counter(
            "repro_mutations_total", "Workspace mutations by operation.",
            labels=("op",),
        )
        self._m_slow_queries = m.counter(
            "repro_slow_queries_total",
            "Queries at or above ServingConfig.slow_query_threshold, "
            "each emitted as a slow_query event.",
        )
        self._m_events = m.gauge(
            "repro_events_total",
            "Structured events emitted over the workspace's lifetime.",
        )
        self._m_index_updates = m.counter(
            "repro_index_updates_total",
            "Index maintenance events by kind (incremental_add, tombstone, "
            "auto_compaction, compaction, rebuild).",
            labels=("kind",),
        )
        self._g_pending = m.gauge(
            "repro_pending_mutations",
            "Mutations logged since the last serving snapshot.",
        )
        self._g_series_live = m.gauge(
            "repro_series_live", "Live series in the workspace roster."
        )
        self._g_segments = m.gauge(
            "repro_snapshot_segments",
            "Prepared segments of the serving engine snapshot.",
        )
        self._g_dead_fraction = m.gauge(
            "repro_snapshot_dead_fraction",
            "Tombstoned fraction of the serving engine's slots.",
        )
        self._g_delta_shards = m.gauge(
            "repro_index_delta_shards", "Delta shards awaiting compaction."
        )
        self._g_tombstones = m.gauge(
            "repro_index_tombstones", "Tombstoned index slots."
        )
        self._g_postings_hits = m.gauge(
            "repro_postings_cache_hits",
            "Lifetime postings-page cache hits across index shards.",
        )
        self._g_postings_misses = m.gauge(
            "repro_postings_cache_misses",
            "Lifetime postings-page cache misses across index shards.",
        )
        # Created here so exports always include them; the searcher binds
        # its own children per serving snapshot.
        m.counter(
            "repro_candidate_cache_requests_total",
            "Stage-1 candidate-set cache lookups by outcome.",
            labels=("outcome",),
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def in_memory(cls, config: Optional[WorkspaceConfig] = None) -> "Workspace":
        """An ephemeral workspace (no directory, nothing persisted)."""
        return cls(config)

    @classmethod
    def create(
        cls,
        path: Union[str, os.PathLike],
        config: Optional[WorkspaceConfig] = None,
        *,
        overwrite: bool = False,
    ) -> "Workspace":
        """Create a new workspace directory and write its manifest.

        Refuses to reuse a directory that already holds a workspace
        unless ``overwrite=True``.
        """
        path = os.fspath(path)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if os.path.exists(manifest_path) and not overwrite:
            raise WorkspaceError(
                f"a workspace already exists at {path!r}; open it with "
                f"Workspace.open() or pass overwrite=True"
            )
        workspace = cls(config)
        workspace.path = path
        os.makedirs(path, exist_ok=True)
        workspace._attach_diagnostics_sinks()
        workspace.save()
        workspace._events.emit("workspace", "created", path=path)
        return workspace

    @classmethod
    def open(cls, path: Union[str, os.PathLike]) -> "Workspace":
        """Reopen a workspace directory written by :meth:`create` / :meth:`save`."""
        path = os.fspath(path)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise WorkspaceError(f"no workspace manifest found at {manifest_path}")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != FORMAT_NAME:
            raise WorkspaceError(f"{manifest_path} is not a {FORMAT_NAME} manifest")
        if int(manifest.get("version", 0)) > FORMAT_VERSION:
            raise WorkspaceError(
                f"workspace format version {manifest.get('version')} is newer "
                f"than this reader (supports <= {FORMAT_VERSION})"
            )
        config = WorkspaceConfig.from_dict(manifest.get("config", {}))
        workspace = cls(config)
        workspace.path = path

        store_file = manifest.get("store_file")
        if store_file:
            workspace._store = FeatureStore.load(
                os.path.join(path, str(store_file)), config=config.sdtw
            )
        for entry in manifest.get("series", []):
            identifier = str(entry["identifier"])
            if store_file and identifier not in workspace._store:
                raise WorkspaceError(
                    f"workspace manifest lists series {identifier!r} but the "
                    f"feature store does not contain it"
                )
            workspace._identifiers.append(identifier)
            label = entry.get("label")
            workspace._labels.append(None if label is None else int(label))

        index_dir = manifest.get("index_dir")
        if index_dir:
            reader = IndexReader.open(
                os.path.join(path, str(index_dir)), mmap=config.index.mmap
            )
            if reader.live_identifiers() != workspace._identifiers:
                raise WorkspaceError(
                    "the persisted index covers a different series roster than "
                    "the workspace manifest; rebuild the index"
                )
            workspace._index = _PersistedIndex(
                index=reader.index,
                codebook=reader.codebook,
                slots=list(reader.identifiers),
            )
        workspace._attach_diagnostics_sinks()
        workspace._events.emit(
            "workspace", "opened",
            path=path,
            num_series=len(workspace._identifiers),
            has_index=workspace._index is not None,
        )
        return workspace

    def _attach_diagnostics_sinks(self) -> None:
        """Point the event log at ``events.jsonl`` in the workspace dir.

        Called once the path is known (create/open); in-memory
        workspaces keep ring-only diagnostics.
        """
        if self.path is not None and self._events.enabled:
            self._events.attach_file(os.path.join(self.path, EVENTS_NAME))

    # ------------------------------------------------------------------ #
    # Context manager / lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Persist pending mutations (path-backed workspaces) and close."""
        with self._lock:
            if self._closed:
                return
            if self._dirty and self.path is not None:
                self.save()
            self._closed = True
            self._serving = None
            self._previous = None
            self._pending.clear()
            self._events.emit("workspace", "closed", path=self.path)

    def _require_open(self) -> None:
        if self._closed:
            raise self._error("this workspace has been closed")

    def _error(self, message: str) -> WorkspaceError:
        """A :class:`WorkspaceError` with the flight record attached.

        Every operational failure the workspace raises carries the
        recent diagnostic state (events, traces, metrics, config) on
        ``exc.flight_record``, so the context that preceded the error
        survives into the caller's handler without a second round trip.
        The capture itself is best-effort: diagnostics must never turn
        one failure into two.
        """
        self._events.emit("workspace", "error", level="error", message=message)
        error = WorkspaceError(message)
        try:
            error.flight_record = self.dump_flight_record(note=message)
        except Exception:  # noqa: BLE001 - diagnostics are best-effort
            error.flight_record = None
        return error

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._identifiers)

    @property
    def identifiers(self) -> List[str]:
        """Stored identifiers in insertion order."""
        return list(self._identifiers)

    @property
    def labels(self) -> List[Optional[int]]:
        """Stored labels in insertion order."""
        return list(self._labels)

    @property
    def has_index(self) -> bool:
        """Whether a fresh (non-stale) index is available."""
        return self._index is not None and not self._index.stale

    @property
    def engine(self) -> DistanceEngine:
        """The serving :class:`DistanceEngine` (built lazily)."""
        return self._ensure_serving().engine

    @property
    def searcher(self) -> Optional[IndexedSearcher]:
        """The serving :class:`IndexedSearcher`, or ``None`` without an index."""
        return self._ensure_serving().searcher

    @property
    def monitor(self) -> StreamMonitor:
        """The embedded :class:`StreamMonitor` (created on first use)."""
        with self._lock:
            self._require_open()
            if self._monitor is None:
                self._monitor = StreamMonitor(
                    self.config.sdtw,
                    prune=self.config.engine.prune,
                    early_abandon=self.config.engine.early_abandon,
                )
            return self._monitor

    def series_of(self, identifier: str) -> np.ndarray:
        """The stored values of one series."""
        return self._store.series_of(identifier)

    def stats(self) -> Dict[str, object]:
        """A summary of the workspace state (used by ``repro workspace stats``)."""
        lengths = [self._store.series_of(i).size for i in self._identifiers]
        index_info: Optional[Dict[str, object]] = None
        if self._index is not None:
            index = self._index.index
            index_info = {
                "num_postings": int(index.num_postings),
                "num_codewords": int(index.num_codewords),
                "stale": bool(self._index.stale),
                "num_slots": int(index.num_series),
                "num_live": int(index.num_live),
                "delta_shards": int(index.num_delta_shards),
                "tombstones": int(index.num_tombstones),
            }
        serving = self._serving
        return {
            "path": self.path,
            "num_series": len(self._identifiers),
            "identifiers": list(self._identifiers),
            "snapshot_version": 0 if serving is None else serving.version,
            "min_length": min(lengths) if lengths else 0,
            "max_length": max(lengths) if lengths else 0,
            "constraint": self.config.engine.constraint,
            "backend": self.config.engine.backend,
            "telemetry": self._metrics.enabled,
            "events_total": int(self._events.events_total),
            "slow_queries": len(self.slow_queries()),
            "slow_query_threshold": self.config.serving.slow_query_threshold,
            "index": index_info,
        }

    # ------------------------------------------------------------------ #
    # Telemetry export
    # ------------------------------------------------------------------ #
    @property
    def metrics(self) -> MetricsRegistry:
        """The workspace's metrics registry (the no-op null registry when
        ``config.serving.telemetry`` is off)."""
        return self._metrics

    def _refresh_state_gauges(self) -> None:
        """Bring point-in-time gauges up to date before an export.

        Counters and histograms accumulate on the hot paths; gauges that
        mirror current state (live series, segment counts, dead
        fraction, cache tallies) are cheaper to read once per export
        than to maintain on every mutation.
        """
        if not self._metrics.enabled:
            return
        self._g_series_live.set(len(self._identifiers))
        self._g_pending.set(len(self._pending))
        self._m_events.set(self._events.events_total)
        snapshot = self._serving
        if snapshot is not None:
            prepared = snapshot.engine._prepared
            self._g_segments.set(
                len(prepared.segments) if prepared is not None else 0
            )
            total = len(snapshot.engine)
            self._g_dead_fraction.set(
                (total - snapshot.engine.num_live) / total if total else 0.0
            )
        if self._index is not None:
            index = self._index.index
            self._g_delta_shards.set(index.num_delta_shards)
            self._g_tombstones.set(index.num_tombstones)
            cache_stats = index.postings_cache_stats()
            self._g_postings_hits.set(cache_stats["hits"])
            self._g_postings_misses.set(cache_stats["misses"])

    def metrics_to_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot of every metric (gauges refreshed)."""
        self._refresh_state_gauges()
        return self._metrics.to_dict()

    def metrics_prometheus(self) -> str:
        """Prometheus text-exposition rendering (gauges refreshed)."""
        self._refresh_state_gauges()
        return self._metrics.render_prometheus()

    def recent_traces(self) -> List[Dict[str, object]]:
        """The retained ring of recent query traces, oldest first."""
        return [trace.to_dict() for trace in self._traces.snapshot()]

    @property
    def events(self) -> EventLog:
        """The workspace's structured event log (the no-op null log
        when ``config.serving.telemetry`` is off and no slow-query
        threshold is armed)."""
        return self._events

    def recent_events(
        self,
        *,
        limit: Optional[int] = None,
        component: Optional[str] = None,
        level: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """The retained event ring, oldest first, optionally filtered."""
        return self._events.to_dicts(
            limit=limit, component=component, level=level
        )

    def slow_queries(self) -> List[Dict[str, object]]:
        """The ``slow_query`` events still in the event ring, oldest first.

        Each record is the event's fields plus its ``timestamp``.
        Path-backed workspaces also find every one as a ``slow_query``
        line in ``events.jsonl``, which outlives the ring.
        """
        return [
            dict(event.fields, timestamp=event.timestamp)
            for event in self._events.snapshot(component="workspace")
            if event.name == "slow_query"
        ]

    def dump_flight_record(
        self, *, note: Optional[str] = None, events: int = 200
    ) -> Dict[str, object]:
        """One JSON-safe bundle of everything an operator needs post hoc.

        Combines the recent event ring, the trace ring, retained
        slow-query records, a full metrics snapshot and the workspace
        configuration — "what happened in the last N seconds before
        this" in a single blob.  Attached automatically to every
        :class:`WorkspaceError` the workspace raises and dumpable via
        ``repro workspace flight-record``.  Works on closed workspaces
        (it only reads retained state) and round-trips through
        ``json.dumps``/``loads`` unchanged.
        """
        record = {
            "format": FLIGHT_RECORD_FORMAT,
            "version": FLIGHT_RECORD_VERSION,
            "captured_at": manifest_timestamp(),
            "note": note,
            "workspace": {
                "path": self.path,
                "closed": self._closed,
                "format_version": FORMAT_VERSION,
                "num_series": len(self._identifiers),
                "pending_mutations": len(self._pending),
                "has_index": self.has_index,
                "events_total": self._events.events_total,
                "event_log_path": self._events.path,
            },
            "config": self.config.to_dict(),
            "events": self._events.to_dicts(limit=events),
            "traces": self.recent_traces(),
            "slow_queries": self.slow_queries(),
            "metrics": self.metrics_to_dict(),
        }
        return json_safe(record)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(
        self,
        values: Union[Sequence[float], np.ndarray],
        identifier: Optional[str] = None,
        label: Optional[int] = None,
    ) -> str:
        """Add one series to the workspace.

        Identifiers must be unique (the on-disk layout is keyed by
        identifier); auto-generated names skip taken ones.  Salient
        features are extracted lazily — at :meth:`build_index` /
        :meth:`save` time, or when an adaptive constraint's serving
        snapshot needs them — so purely fixed-band workloads never pay
        for extraction.

        With ``config.index.incremental`` (the default) an existing
        fresh index stays fresh: the new series' features are extracted,
        quantized against the frozen codebook and appended as one delta
        shard — O(new features) instead of a full rebuild, and ``auto``
        queries keep using the indexed path.
        With ``incremental=False`` adding marks the index stale and
        ``auto`` queries fall back to the exact scan until
        :meth:`build_index` runs again.
        """
        with self._lock:
            self._require_open()
            array = as_series(values, "values")
            if identifier is None:
                counter = len(self._identifiers)
                taken = set(self._identifiers)
                identifier = f"series-{counter:05d}"
                while identifier in taken:
                    counter += 1
                    identifier = f"series-{counter:05d}"
            else:
                identifier = str(identifier)
                if identifier in self._store:
                    raise ValidationError(
                        f"identifier {identifier!r} is already stored in this "
                        f"workspace"
                    )
            self._store.add_series(identifier, array, extract=False)
            self._identifiers.append(identifier)
            self._labels.append(label)
            index_updated = self._index_add(identifier, array)
            self._invalidate(
                index_updated=index_updated,
                op=("add", identifier),
            )
            self._m_mutations.labels(op="add").inc()
            self._events.emit(
                "workspace", "series_added",
                identifier=identifier,
                length=int(array.size),
                index_updated=index_updated,
                num_series=len(self._identifiers),
            )
            return identifier

    def _index_add(self, identifier: str, array: np.ndarray) -> bool:
        """Incrementally index one just-stored series (caller holds the lock).

        Returns ``True`` when the index absorbed the series (it stays
        fresh), ``False`` when the caller must mark it stale instead.
        Updates go through a clone of the inverted index, so serving
        snapshots taken before this mutation keep reading an immutable
        shard set.
        """
        persisted = self._index
        if (
            persisted is None
            or persisted.stale
            or not self.config.index.incremental
            or not persisted.index.supports_incremental
        ):
            return False
        features = self._store.ensure_features(identifier)
        codebook = persisted.codebook
        updated = persisted.index.clone()
        updated.add_series(codebook.bag(features, array.size))
        slots = persisted.slots + [identifier]
        generation = persisted.generation
        self._m_index_updates.labels(kind="incremental_add").inc()
        self._events.emit(
            "index", "delta_appended",
            identifier=identifier,
            delta_shards=int(updated.num_delta_shards),
            num_slots=int(updated.num_series),
        )
        self._events.emit(
            "cache", "candidate_cache_invalidated", level="debug",
            reason="incremental_add",
        )
        if updated.num_delta_shards > self.config.index.max_delta_shards:
            updated, slot_map = updated.compact(
                num_shards=self.config.index.num_shards
            )
            slots = [name for slot, name in enumerate(slots) if slot_map[slot] >= 0]
            generation += 1  # compaction renumbers slots
            self._m_index_updates.labels(kind="auto_compaction").inc()
            self._events.emit(
                "index", "auto_compaction",
                live=int(updated.num_live),
                generation=generation,
                max_delta_shards=self.config.index.max_delta_shards,
            )
        self._index = _PersistedIndex(
            index=updated,
            codebook=codebook,
            slots=slots,
            generation=generation,
        )
        return True

    def remove(self, identifier: str) -> None:
        """Remove one stored series from the workspace.

        With ``config.index.incremental`` a fresh index stays fresh: the
        series' slot is tombstoned (its postings are skipped by every
        query and dropped physically at the next compaction).  Without
        incremental maintenance the index goes stale.
        """
        with self._lock:
            self._require_open()
            identifier = str(identifier)
            if identifier not in self._store:
                raise DatasetError(
                    f"no series stored under identifier {identifier!r}"
                )
            position = self._identifiers.index(identifier)
            del self._identifiers[position]
            del self._labels[position]
            self._store.remove_series(identifier)
            index_updated = self._index_remove(identifier)
            self._invalidate(
                index_updated=index_updated,
                op=("remove", identifier),
            )
            self._m_mutations.labels(op="remove").inc()
            self._events.emit(
                "workspace", "series_removed",
                identifier=identifier,
                index_updated=index_updated,
                num_series=len(self._identifiers),
            )

    def _index_remove(self, identifier: str) -> bool:
        """Tombstone one series' index slot (caller holds the lock)."""
        persisted = self._index
        if (
            persisted is None
            or persisted.stale
            or not self.config.index.incremental
        ):
            return False
        slot = None
        for candidate, name in enumerate(persisted.slots):
            if name == identifier and not persisted.index.tombstones[candidate]:
                slot = candidate
                break
        if slot is None:
            return False
        updated = persisted.index.clone()
        updated.remove_series(slot)
        self._index = _PersistedIndex(
            index=updated,
            codebook=persisted.codebook,
            slots=list(persisted.slots),
            generation=persisted.generation,  # tombstones keep slot numbers
        )
        self._m_index_updates.labels(kind="tombstone").inc()
        self._events.emit(
            "index", "tombstone",
            identifier=identifier,
            slot=slot,
            tombstones=int(updated.num_tombstones),
        )
        return True

    def add_batch(
        self,
        series: Sequence[Union[Sequence[float], np.ndarray]],
        identifiers: Optional[Sequence[str]] = None,
        labels: Optional[Sequence[Optional[int]]] = None,
    ) -> List[str]:
        """Add many series atomically; returns their identifiers.

        The whole batch is validated before the first series is stored,
        so a duplicate identifier (against the workspace or within the
        batch) leaves the workspace unchanged.
        """
        if identifiers is not None and len(identifiers) != len(series):
            raise ValidationError("identifiers must have one entry per series")
        if labels is not None and len(labels) != len(series):
            raise ValidationError("labels must have one entry per series")
        with self._lock:
            self._require_open()
            if identifiers is not None:
                explicit = [str(identifier) for identifier in identifiers]
                seen = set()
                for identifier in explicit:
                    if identifier in self._store or identifier in seen:
                        raise ValidationError(
                            f"identifier {identifier!r} is already stored in "
                            f"this workspace (or repeated within the batch); "
                            f"nothing was added"
                        )
                    seen.add(identifier)
            return [
                self.add(
                    values,
                    identifier=None if identifiers is None else identifiers[i],
                    label=None if labels is None else labels[i],
                )
                for i, values in enumerate(series)
            ]

    def add_dataset(self, dataset: Dataset) -> List[str]:
        """Add every series of a data set (labels preserved)."""
        identifiers = [
            ts.identifier or f"{dataset.name}-{i:04d}"
            for i, ts in enumerate(dataset)
        ]
        return self.add_batch(dataset.values_list(), identifiers, dataset.labels)

    def _invalidate(
        self,
        *,
        index_updated: bool = False,
        op: Optional[Tuple[str, str]] = None,
    ) -> None:
        """Mark serving state stale after a mutation (caller holds the lock).

        ``index_updated=True`` means the mutation already refreshed the
        index incrementally, so only the serving snapshot needs a
        rebuild; otherwise any existing index goes stale.  ``op`` (an
        ``("add"|"remove", identifier)`` pair) is appended to the
        mutation log, letting the next query *derive* its snapshot from
        the previous one — shared prepared segments, an appended segment
        for new series, tombstones for removals — instead of rebuilding
        the engine from scratch.
        """
        if self._serving is not None:
            self._previous = self._serving
        self._serving = None
        if op is not None:
            self._pending.append(op)
        self._g_pending.set(len(self._pending))
        self._dirty = True
        if not index_updated and self._index is not None:
            if not self._index.stale:
                self._events.emit(
                    "index", "marked_stale", level="warn",
                    op=None if op is None else op[0],
                )
            self._index.stale = True

    # ------------------------------------------------------------------ #
    # Serving snapshot
    # ------------------------------------------------------------------ #
    def _ensure_serving(self) -> _Snapshot:
        snapshot = self._serving
        if snapshot is not None:
            return snapshot
        with self._lock:
            self._require_open()
            if self._serving is None:
                pending = len(self._pending)
                self._serving = dataclasses.replace(
                    self._next_snapshot(),
                    version=self._bump_snapshot_version(),
                )
                self._previous = None
                self._pending.clear()
                if pending:
                    self._events.emit(
                        "snapshot", "pending_log_folded", level="debug",
                        mutations=pending,
                    )
            return self._serving

    def _bump_snapshot_version(self) -> int:
        """The next snapshot publish version (caller holds the lock)."""
        self._snapshot_version += 1
        return self._snapshot_version

    # Rebuild (instead of derive) once this fraction of a derived
    # engine's slots would be tombstones: queries pay for dead slots in
    # bound computation, so unbounded tombstone accumulation would slowly
    # degrade the read path.  A rebuild compacts them away.
    _MAX_DEAD_FRACTION = 0.5

    def _next_snapshot(self) -> _Snapshot:
        """The snapshot for the current roster (caller holds the lock).

        Derives from the previous snapshot when possible — O(pending
        mutations) instead of an O(N) engine rebuild — and falls back to
        :meth:`_build_snapshot` when there is no usable base (first
        query) or too many accumulated tombstones.  The rebuild is also
        the tests' oracle for derivation: a negative
        ``_MAX_DEAD_FRACTION`` on an instance forces it on every refresh.
        """
        previous = self._previous
        if previous is None or previous.engine._prepared is None:
            return self._build_snapshot()
        added, removed = self._net_pending()
        total = len(previous.engine) + len(added)
        live = len(self._identifiers)
        if total and (total - live) / total > self._MAX_DEAD_FRACTION:
            return self._build_snapshot()
        return self._derive_snapshot(previous, added, removed)

    def _net_pending(self) -> Tuple[List[str], List[str]]:
        """Collapse the mutation log into net (added, removed) identifier
        lists relative to the previous snapshot.

        Add-then-remove within one log cancels out entirely; a
        remove-then-re-add of the same identifier yields one tombstone
        plus one appended slot, which is exactly what the engine
        derivation needs (the re-added series may have different
        values).
        """
        added: List[str] = []
        removed: List[str] = []
        for op, identifier in self._pending:
            if op == "add":
                added.append(identifier)
            elif identifier in added:
                added.remove(identifier)
            else:
                removed.append(identifier)
        return added, removed

    def _derive_snapshot(
        self,
        previous: _Snapshot,
        added: List[str],
        removed: List[str],
    ) -> _Snapshot:
        """Extend the previous snapshot to the current roster.

        The engine derivation shares the previous engine's prepared
        segments and costs O(added) cache building plus O(N) small-array
        copies — never the O(N) envelope/profile recomputation of
        :meth:`_build_snapshot`.  The previous snapshot itself is never
        touched: readers holding it keep serving bit-identical results.
        """
        label_of = dict(zip(self._identifiers, self._labels))
        base_engine = previous.engine
        if base_engine._resolved.aligns:
            # Seed the shared salient-feature cache for the new series
            # from the store before the engine derivation would extract
            # them from scratch.
            sdtw = base_engine._sdtw
            for identifier in added:
                features = self._store.ensure_features(identifier)
                key = sdtw._cache_key(
                    np.ascontiguousarray(
                        self._store.series_of(identifier), dtype=float
                    )
                )
                sdtw._feature_cache[key] = features
        engine = base_engine.extended(
            [
                (self._store.series_of(identifier), identifier,
                 label_of.get(identifier))
                for identifier in added
            ],
            removed_identifiers=removed,
        )
        alive = engine.alive_mask
        if alive is None or bool(alive.all()):
            engine_to_live = None
        else:
            engine_to_live = np.where(alive, np.cumsum(alive) - 1, -1)
        searcher: Optional[IndexedSearcher] = None
        generation: Optional[int] = None
        if self.has_index:
            generation = self._index.generation
            mapping = self._extend_slot_mapping(previous, engine)
            if mapping is None:
                mapping = self._slot_mapping(engine=engine)
            searcher = self._make_searcher(engine, mapping)
        self._m_snapshots.labels(kind="derived").inc()
        prepared = engine._prepared
        self._events.emit(
            "snapshot", "derived",
            added=len(added),
            removed=len(removed),
            live=int(engine.num_live),
            segments=0 if prepared is None else len(prepared.segments),
        )
        return _Snapshot(
            engine=engine,
            searcher=searcher,
            size=engine.num_live,
            engine_to_live=engine_to_live,
            index_generation=generation,
        )

    def _extend_slot_mapping(
        self, previous: _Snapshot, engine: DistanceEngine
    ) -> Optional[np.ndarray]:
        """Extend the previous snapshot's index-slot mapping in O(new).

        Valid only while the index generation is unchanged (slots are
        append-only within a generation) and the engine keeps the
        previous slot numbering (derivation never renumbers).  Returns
        ``None`` when a full rebuild is required instead.
        """
        persisted = self._index
        if (
            previous.searcher is None
            or previous.index_generation != persisted.generation
        ):
            return None
        prev_map = previous.searcher.index_to_engine
        if prev_map is None:
            # Identity mapping: index slot i served engine position i.
            prev_map = np.arange(
                int(previous.searcher.index.num_series), dtype=np.int64
            )
        if prev_map.size > len(persisted.slots):
            return None
        mapping = np.full(len(persisted.slots), -1, dtype=np.int64)
        mapping[: prev_map.size] = prev_map
        tombstones = np.asarray(persisted.index.tombstones, dtype=bool)
        for slot in range(prev_map.size, len(persisted.slots)):
            if not tombstones[slot]:
                mapping[slot] = engine.slot_of(persisted.slots[slot])
        mapping[tombstones] = -1
        return mapping

    def _make_searcher(
        self, engine: DistanceEngine, mapping: Optional[np.ndarray]
    ) -> IndexedSearcher:
        """An :class:`IndexedSearcher` over the serving index state."""
        return IndexedSearcher(
            self._index.index,
            self._index.codebook,
            engine,
            config=self.config.sdtw,
            candidate_budget=self.config.index.candidate_budget,
            index_to_engine=mapping,
            postings_cache=self.config.index.postings_cache,
            candidate_cache=self.config.index.candidate_cache,
            telemetry=self._metrics,
        )

    def _build_snapshot(self) -> _Snapshot:
        cfg = self.config.engine
        engine = DistanceEngine(
            cfg.constraint,
            self.config.sdtw,
            backend=cfg.backend,
            num_workers=cfg.num_workers,
            prune=cfg.prune,
            early_abandon=cfg.early_abandon,
            batch_size=cfg.batch_size,
            itakura_max_slope=cfg.itakura_max_slope,
        )
        for identifier, label in zip(self._identifiers, self._labels):
            engine.add(
                self._store.series_of(identifier),
                identifier=identifier,
                label=label,
            )
        # Seed the engine's salient-feature cache from the store so
        # adaptive constraints never re-extract stored series; the
        # store's features are materialised first (one-time, kept across
        # snapshot rebuilds).  Fixed-band constraints never read them.
        if engine._resolved.aligns:
            self._ensure_all_features()
        self._store.warm_engine(engine._sdtw)
        if len(engine):
            engine.prepare()
        searcher: Optional[IndexedSearcher] = None
        generation: Optional[int] = None
        if self.has_index:
            generation = self._index.generation
            searcher = self._make_searcher(engine, self._slot_mapping())
        self._m_snapshots.labels(kind="rebuilt").inc()
        self._events.emit(
            "snapshot", "rebuilt",
            live=len(engine),
            indexed=searcher is not None,
        )
        return _Snapshot(
            engine=engine,
            searcher=searcher,
            size=len(engine),
            index_generation=generation,
        )

    def _slot_mapping(
        self, engine: Optional[DistanceEngine] = None
    ) -> Optional[np.ndarray]:
        """Index-slot -> engine-position mapping (``None`` when identity).

        Without *engine* the mapping targets a freshly built engine
        whose positions equal live-roster positions; with a (possibly
        derived) *engine* the mapping targets its stable slot numbering,
        tombstoned slots included.
        """
        persisted = self._index
        if persisted is None:
            return None
        if (
            engine is None
            and not persisted.index.num_tombstones
            and persisted.slots == self._identifiers
        ):
            return None
        if engine is None:
            position_of = {
                identifier: position
                for position, identifier in enumerate(self._identifiers)
            }
        else:
            alive = engine.alive_mask
            position_of = {
                stored.identifier: slot
                for slot, stored in enumerate(engine._stored)
                if alive is None or alive[slot]
            }
        mapping = np.full(len(persisted.slots), -1, dtype=np.int64)
        tombstones = persisted.index.tombstones
        for slot, identifier in enumerate(persisted.slots):
            if not tombstones[slot]:
                mapping[slot] = position_of[identifier]
        return mapping

    def _ensure_all_features(self) -> None:
        """Materialise any deferred feature extraction (caller holds the lock)."""
        for identifier in self._identifiers:
            self._store.ensure_features(identifier)

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #
    def build_index(
        self,
        *,
        num_codewords: Optional[int] = None,
        num_shards: Optional[int] = None,
        candidate_budget: Optional[int] = None,
    ) -> None:
        """(Re)build the inverted index over the current collection.

        Stored features are reused from the feature store — building the
        index never re-extracts.  Path-backed workspaces persist the
        index (and any pending mutations) immediately.
        """
        with self._lock:
            self._require_open()
            if not self._identifiers:
                raise DatasetError("cannot build an index over an empty workspace")
            cfg = self.config.index
            snapshot = self._ensure_serving()
            if snapshot.engine_to_live is not None:
                # The serving engine carries tombstoned slots; index
                # construction wants a dense engine whose positions equal
                # roster positions, so rebuild the snapshot from scratch
                # (the codebook refit below dwarfs this cost anyway).
                snapshot = dataclasses.replace(
                    self._build_snapshot(),
                    version=self._bump_snapshot_version(),
                )
                self._serving = snapshot
            self._ensure_all_features()
            codebook_config = CodebookConfig.for_sdtw(
                self.config.sdtw,
                num_codewords=cfg.num_codewords if num_codewords is None
                else num_codewords,
                seed=cfg.seed,
            )
            searcher = IndexedSearcher.from_engine(
                snapshot.engine,
                config=self.config.sdtw,
                codebook_config=codebook_config,
                num_shards=cfg.num_shards if num_shards is None else num_shards,
                candidate_budget=(
                    cfg.candidate_budget if candidate_budget is None
                    else candidate_budget
                ),
                features=[
                    list(self._store.features_of(identifier))
                    for identifier in self._identifiers
                ],
                telemetry=self._metrics,
            )
            self._m_index_updates.labels(kind="rebuild").inc()
            self._events.emit(
                "index", "rebuilt",
                num_series=len(self._identifiers),
                num_codewords=int(searcher.codebook.num_codewords),
            )
            self._events.emit(
                "cache", "candidate_cache_invalidated", level="debug",
                reason="rebuild",
            )
            self._index = _PersistedIndex(
                index=searcher.index,
                codebook=searcher.codebook,
                slots=list(self._identifiers),
                generation=(
                    0 if self._index is None else self._index.generation + 1
                ),
            )
            searcher.enable_caches(
                postings_cache=self.config.index.postings_cache,
                candidate_cache=self.config.index.candidate_cache,
            )
            self._serving = _Snapshot(
                engine=snapshot.engine,
                searcher=searcher,
                size=snapshot.size,
                index_generation=self._index.generation,
                version=self._bump_snapshot_version(),
            )
            self._dirty = True
            if self.path is not None:
                self.save()

    def compact_index(self, *, num_shards: Optional[int] = None) -> None:
        """Fold the index's delta shards and tombstones into its base.

        Compaction recomputes IDF statistics and TF-IDF weights from the
        stored raw counts; the result is bit-identical to rebuilding the
        postings from scratch under the same frozen codebook, so query
        results are unchanged (modulo the documented IDF drift deltas
        accumulate before compaction).  A no-op when the index has no
        deltas and no tombstones.
        """
        with self._lock:
            self._require_open()
            if self._index is None or self._index.stale:
                raise self._error(
                    "no fresh index to compact; run build_index() first"
                )
            persisted = self._index
            index = persisted.index
            if not index.num_delta_shards and not index.num_tombstones:
                return
            deltas = int(index.num_delta_shards)
            tombstones = int(index.num_tombstones)
            cfg = self.config.index
            compacted, slot_map = index.compact(
                num_shards=cfg.num_shards if num_shards is None else num_shards
            )
            self._index = _PersistedIndex(
                index=compacted,
                codebook=persisted.codebook,
                slots=[
                    name for slot, name in enumerate(persisted.slots)
                    if slot_map[slot] >= 0
                ],
                generation=persisted.generation + 1,  # slots renumbered
            )
            self._m_index_updates.labels(kind="compaction").inc()
            self._events.emit(
                "index", "compaction",
                folded_delta_shards=deltas,
                dropped_tombstones=tombstones,
                live=int(compacted.num_live),
                generation=self._index.generation,
            )
            self._events.emit(
                "cache", "candidate_cache_invalidated", level="debug",
                reason="compaction",
            )
            # Only the searcher changes: the next query derives a
            # snapshot around the same prepared engine (zero pending
            # mutations) instead of rebuilding it.
            self._invalidate(index_updated=True)
            if self.path is not None:
                self.save()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query(
        self,
        values: Union[Sequence[float], np.ndarray],
        k: Optional[int] = None,
        *,
        mode: str = "auto",
        candidates: Optional[int] = None,
        exclude_identifier: Optional[str] = None,
    ) -> WorkspaceQueryResult:
        """k nearest stored series to a query.

        Parameters
        ----------
        values:
            The query series.
        k:
            Neighbours to return (default: ``config.default_k``).
        mode:
            ``"exact"`` runs the full engine cascade; ``"indexed"`` runs
            candidate generation + exact re-rank (requires a fresh
            index); ``"auto"`` picks ``indexed`` when a fresh index
            exists, ``exact`` otherwise.
        candidates:
            Per-query candidate budget override (indexed mode).
        exclude_identifier:
            Skip this stored identifier (leave-one-out evaluations).
        """
        self._require_open()
        k = self.config.default_k if k is None else check_int_at_least(k, 1, "k")
        requested = str(mode).strip().lower()
        if requested not in _MODES:
            raise ValidationError(
                f"unknown query mode {mode!r}; choose one of {_MODES}"
            )
        started = time.perf_counter()
        snapshot = self._ensure_serving()
        if snapshot.size == 0:
            # Covers both the never-filled workspace and the mutated
            # path where every live series has been removed (a query
            # racing the remove of the last series either serves the
            # pre-mutation snapshot or lands here — never an engine
            # error).
            raise self._error(
                "cannot query an empty workspace (no live series)"
            )
        resolved = requested
        if requested == "auto":
            resolved = "indexed" if snapshot.searcher is not None else "exact"
        # The telemetry decision is made once per query: disabled means
        # no trace object and every metric handle below is a no-op.
        trace: Optional[QueryTrace] = None
        if self._metrics.enabled:
            trace = QueryTrace(
                requested_mode=requested, k=k, collection_size=snapshot.size
            )
        if resolved == "indexed":
            if snapshot.searcher is None:
                raise self._error(
                    "no fresh index is available (build_index() has not run "
                    "since the last mutation); use mode='exact' or rebuild"
                )
            with trace_scope(trace):
                result = snapshot.searcher.query(
                    values, k,
                    candidates=candidates,
                    exclude_identifier=exclude_identifier,
                )
            outcome = WorkspaceQueryResult(
                hits=self._remap_hits(snapshot, result.hits),
                mode="indexed",
                requested_mode=requested,
                k=k,
                collection_size=snapshot.size,
                candidates_generated=result.candidates_generated,
                generation_seconds=result.generation_seconds,
                rerank_seconds=result.rerank_seconds,
                stats=result.stats,
                trace=trace,
                snapshot_version=snapshot.version,
            )
            return self._finish_query(outcome, trace, started)
        engine_result = snapshot.engine.query(
            values, k, exclude_identifier=exclude_identifier
        )
        outcome = WorkspaceQueryResult(
            hits=self._remap_hits(snapshot, engine_result.hits),
            mode="exact",
            requested_mode=requested,
            k=k,
            collection_size=snapshot.size,
            candidates_generated=snapshot.size,
            generation_seconds=0.0,
            rerank_seconds=engine_result.stats.elapsed_seconds,
            stats=engine_result.stats,
            trace=trace,
            snapshot_version=snapshot.version,
        )
        return self._finish_query(outcome, trace, started)

    def _finish_query(
        self,
        result: WorkspaceQueryResult,
        trace: Optional[QueryTrace],
        started: float,
    ) -> WorkspaceQueryResult:
        """Record a served query: aggregate metrics + the sealed trace.

        ``trace is None`` means telemetry is off; the method then only
        pays two no-op counter calls.  Cascade stages are assembled from
        the result's :class:`EngineStats` (never re-timed), topped up by
        a ``cascade_overhead`` span (engine wall time outside the four
        accounted phases) and the residual ``other`` span added by
        :meth:`QueryTrace.finish`, so the stage sum equals the measured
        end-to-end wall time exactly.
        """
        self._m_queries.labels(mode=result.mode).inc()
        threshold = self.config.serving.slow_query_threshold
        if trace is None:
            # Telemetry off: slow-query capture still works (armed by
            # its own threshold knob), just without a trace to attach.
            if threshold is not None:
                elapsed = time.perf_counter() - started
                if elapsed >= threshold:
                    self._emit_slow_query(result, None, elapsed, threshold)
            return result
        elapsed = time.perf_counter() - started
        stats = result.stats
        self._m_query_seconds.labels(mode=result.mode).observe(elapsed)
        stage_hist = self._m_stage_seconds
        if result.generation_seconds:
            stage_hist.labels(stage="generation").observe(result.generation_seconds)
        stage_hist.labels(stage="bounds").observe(stats.bound_seconds)
        stage_hist.labels(stage="extract").observe(stats.extract_seconds)
        stage_hist.labels(stage="matching").observe(stats.matching_seconds)
        stage_hist.labels(stage="dp").observe(stats.dp_seconds)
        self._m_candidates.inc(stats.candidates)
        self._m_pruned.labels(stage="lb_kim").inc(stats.pruned_lb_kim)
        self._m_pruned.labels(stage="lb_keogh").inc(stats.pruned_lb_keogh)
        self._m_dtw.labels(outcome="completed").inc(stats.dtw_computed)
        self._m_dtw.labels(outcome="abandoned").inc(stats.dtw_abandoned)
        self._m_cells_filled.inc(stats.cells_filled)
        self._m_cells_total.inc(stats.total_cells)
        trace.mode = result.mode
        trace.candidates_generated = result.candidates_generated
        trace.add_stage(
            "bounds",
            stats.bound_seconds,
            lb_kim_computed=stats.lb_kim_computed,
            lb_keogh_computed=stats.lb_keogh_computed,
            pruned_lb_kim=stats.pruned_lb_kim,
            pruned_lb_keogh=stats.pruned_lb_keogh,
            prune_rate=stats.prune_rate,
        )
        trace.add_stage("extract", stats.extract_seconds)
        trace.add_stage("matching", stats.matching_seconds)
        trace.add_stage(
            "dp",
            stats.dp_seconds,
            dtw_computed=stats.dtw_computed,
            dtw_abandoned=stats.dtw_abandoned,
            cells_filled=stats.cells_filled,
            cell_fraction=stats.cell_fraction,
        )
        cascade_overhead = stats.elapsed_seconds - (
            stats.bound_seconds
            + stats.extract_seconds
            + stats.matching_seconds
            + stats.dp_seconds
        )
        if cascade_overhead > 0.0:
            trace.add_stage("cascade_overhead", cascade_overhead)
        trace.attributes["candidates"] = stats.candidates
        trace.attributes["prune_rate"] = stats.prune_rate
        trace.finish(elapsed)
        self._traces.append(trace)
        if threshold is not None and elapsed >= threshold:
            self._emit_slow_query(result, trace, elapsed, threshold)
        return result

    def _emit_slow_query(
        self,
        result: WorkspaceQueryResult,
        trace: Optional[QueryTrace],
        elapsed: float,
        threshold: float,
    ) -> None:
        """Emit one over-threshold query as a ``slow_query`` event.

        The event carries the sealed trace, so the event log is the
        slow-query record: :meth:`slow_queries` reads it back from the
        ring, and a path-backed workspace appends it to ``events.jsonl``
        (a failed write counts as a dropped event, never fails the query).
        """
        self._m_slow_queries.inc()
        self._events.emit(
            "workspace", "slow_query", level="warn",
            elapsed_seconds=float(elapsed),
            threshold_seconds=float(threshold),
            mode=result.mode,
            requested_mode=result.requested_mode,
            k=result.k,
            collection_size=result.collection_size,
            candidates_generated=result.candidates_generated,
            hits=[
                {"identifier": hit.identifier, "distance": hit.distance}
                for hit in result.hits[:5]
            ],
            trace=None if trace is None else trace.to_dict(),
        )

    @staticmethod
    def _remap_hits(
        snapshot: _Snapshot, hits: Tuple[EngineHit, ...]
    ) -> Tuple[EngineHit, ...]:
        """Translate engine-slot hit indices into live-roster positions.

        On a derived engine with tombstones the slot numbering has gaps;
        live slots in ascending order correspond exactly to the live
        roster (removals preserve relative order, additions append), so
        the translation is a rank lookup.  Identity on fresh engines.
        """
        mapping = snapshot.engine_to_live
        if mapping is None:
            return hits
        return tuple(
            dataclasses.replace(hit, index=int(mapping[hit.index]))
            for hit in hits
        )

    def knn(
        self,
        queries: Sequence[Union[Sequence[float], np.ndarray]],
        k: Optional[int] = None,
        *,
        exclude_identifiers: Optional[Sequence[Optional[str]]] = None,
    ) -> BatchKNNResult:
        """Exact batch k-NN over many queries in one engine call."""
        self._require_open()
        k = self.config.default_k if k is None else check_int_at_least(k, 1, "k")
        snapshot = self._ensure_serving()
        if snapshot.size == 0:
            raise self._error(
                "cannot query an empty workspace (no live series)"
            )
        batch = snapshot.engine.knn(
            queries, k, exclude_identifiers=exclude_identifiers
        )
        if snapshot.engine_to_live is not None:
            batch.results = [
                dataclasses.replace(
                    result, hits=self._remap_hits(snapshot, result.hits)
                )
                for result in batch.results
            ]
        return batch

    # ------------------------------------------------------------------ #
    # Pairwise distances
    # ------------------------------------------------------------------ #
    def pairwise(
        self,
        x: Union[Sequence[float], np.ndarray],
        y: Union[Sequence[float], np.ndarray],
        constraint: Optional[str] = None,
    ) -> SDTWResult:
        """One sDTW distance between two arbitrary series.

        Delegates to :class:`~repro.core.sdtw.SDTW` under the workspace
        configuration; the default constraint is the engine's.  Each call
        uses a fresh ``SDTW``, so both series' features die with the call.
        """
        self._require_open()
        return SDTW(self.config.sdtw).distance(
            x, y,
            constraint=(
                self.config.engine.constraint if constraint is None else constraint
            ),
        )

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def stream(
        self,
        pattern: Union[Sequence[float], np.ndarray],
        *,
        threshold: float,
        name: Optional[str] = None,
        mode: str = "spring",
        constraint: Optional[str] = None,
        streams: Optional[Sequence[str]] = None,
    ) -> str:
        """Register a query pattern on the embedded stream monitor.

        Returns the pattern name.  Streams are runtime state: they are
        *not* persisted in the workspace manifest (reopenings start with
        an empty monitor).  Use :meth:`add_stream`, :meth:`push` and
        :meth:`extend` to feed data, or work with :attr:`monitor`
        directly for the full streaming API.
        """
        return self.monitor.add_pattern(
            pattern,
            threshold=threshold,
            name=name,
            mode=mode,
            constraint=(
                self.config.engine.constraint if constraint is None else constraint
            ),
            streams=streams,
        )

    def add_stream(
        self, name: Optional[str] = None, *, capacity: Optional[int] = None
    ) -> str:
        """Register a stream on the embedded monitor; returns its name."""
        return self.monitor.add_stream(name, capacity=capacity)

    def push(self, stream: str, value: float) -> List[StreamMatch]:
        """Feed one sample into a registered stream."""
        return self.monitor.push(stream, value)

    def extend(
        self, stream: str, values: Union[Sequence[float], np.ndarray]
    ) -> List[StreamMatch]:
        """Feed many samples into a registered stream in order."""
        return self.monitor.extend(stream, values)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self) -> str:
        """Write the manifest, feature store and index; returns the manifest path.

        Only valid on path-backed workspaces (create one with
        :meth:`create`, or assign :attr:`path` before saving).
        """
        with self._lock:
            if self.path is None:
                raise self._error(
                    "this workspace is in-memory; create it with "
                    "Workspace.create(path) to persist"
                )
            os.makedirs(self.path, exist_ok=True)
            store_file: Optional[str] = None
            if self._identifiers:
                store_file = STORE_NAME
                self._store.save(os.path.join(self.path, STORE_NAME))
            index_dir: Optional[str] = None
            if self._index is not None and not self._index.stale:
                index_dir = INDEX_DIR_NAME
                IndexWriter(os.path.join(self.path, INDEX_DIR_NAME)).write(
                    self._index.index,
                    self._index.codebook,
                    self._index.slots,
                )
            else:
                # A previously persisted index that is now stale (or was
                # never built) is not referenced by the manifest; drop the
                # orphaned directory so the on-disk layout matches it.
                orphan = os.path.join(self.path, INDEX_DIR_NAME)
                if os.path.isdir(orphan):
                    shutil.rmtree(orphan)
            manifest = {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "created": manifest_timestamp(),
                "config": self.config.to_dict(),
                "series": [
                    {"identifier": identifier, "label": label}
                    for identifier, label in zip(self._identifiers, self._labels)
                ],
                "store_file": store_file,
                "index_dir": index_dir,
            }
            manifest_path = os.path.join(self.path, MANIFEST_NAME)
            with open(manifest_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2)
                handle.write("\n")
            self._dirty = False
            self._events.emit(
                "workspace", "saved",
                num_series=len(self._identifiers),
                index_persisted=index_dir is not None,
            )
            return manifest_path


def manifest_timestamp() -> str:
    """Seconds-resolution UTC timestamp recorded in workspace manifests."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


__all__ = ["WIRE_FORMAT", "WIRE_VERSION", "Workspace", "WorkspaceQueryResult"]
