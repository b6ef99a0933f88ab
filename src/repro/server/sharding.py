"""Hash-partitioned sharding with bit-identical scatter-gather k-NN.

One logical workspace is partitioned across several shard workspaces by
a stable hash of the series identifier (:func:`shard_of`), and
:class:`ShardedWorkspace` presents the shard set behind the same query
surface as a single :class:`~repro.service.Workspace`.  Shards are
duck-typed: in-process ``Workspace`` instances and
:class:`~repro.server.client.RemoteWorkspace` HTTP clients (one shard
per server process) mix freely, so the same scatter-gather code runs
the in-process and multi-process deployments.

Bit-identity contract
---------------------
A k-NN query fans out to every non-empty shard with the *full* budget
``k`` and the per-shard top-k lists are merged by ``(distance,
global insertion position)`` — exactly the ordering a single workspace
produces (its engine ranks by distance with ties broken by stored
position).  Because exact-mode distances depend only on the
(query, series) pair, the merged exact result is bit-identical to the
single-workspace result at every shard count.  Indexed mode is exact
*within its candidate set*: per-shard indexes spend their candidate
budget independently, so the sharded indexed result matches the
single-workspace one under the same condition the index itself
documents (bit-identical at ``candidate_budget >= shard size``,
high-recall approximate below it).

Fan-out: a query starts one thread per ``RemoteWorkspace`` shard, which
waits on its socket, and then answers the in-process shards on the
calling thread, one after another, while the remote calls are in
flight.  In-process shards run Python and small numpy calls that hold
the interpreter lock, so threads for them would only take turns and pay
for every hand-off (README, "Serving over HTTP", has the measurement).
The shard type picks the path.

Degraded reads: with ``allow_partial=True`` a query whose shard
fan-out partially fails returns the merged hits of the answering
shards and lists the casualties in ``failed_shards``; the default is
to fail the query (complete results or an error).  Only an
``Exception`` counts as a shard failure: a ``KeyboardInterrupt`` or
``SystemExit`` raised while a shard answers propagates to the caller.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import zlib
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..engine.stats import EngineStats
from ..exceptions import ServerError, ValidationError, WorkspaceError
from ..service.workspace import Workspace, WorkspaceQueryResult
from ..telemetry.registry import NULL_REGISTRY, MetricsRegistry
from ..telemetry.trace import QueryTrace
from .client import RemoteWorkspace


def shard_of(identifier: str, num_shards: int) -> int:
    """The home shard of *identifier* (stable CRC-32 hash placement).

    Deterministic across processes and Python versions (unlike the
    builtin ``hash``), so a client and every server of a shard set
    agree on placement without coordination.
    """
    if num_shards < 1:
        raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
    return zlib.crc32(identifier.encode("utf-8")) % num_shards


class ShardedWorkspace:
    """One logical workspace hash-partitioned across shard workspaces.

    Parameters
    ----------
    shards:
        The shard workspaces, in shard order.  Anything duck-typed to
        the ``Workspace`` surface works (``query``/``add``/``remove``/
        ``stats``/``identifiers``); mixing in-process workspaces and
        :class:`~repro.server.client.RemoteWorkspace` clients is fine.
    names:
        Display names per shard (default ``shard-0`` ...); surfaced in
        per-shard health, ``shard_versions`` and metrics labels.
    roster:
        Global insertion order of the identifiers already stored across
        the shards.  Required for bit-identical tie-breaking when
        attaching to pre-populated shards whose interleaving this
        object did not observe; defaults to concatenating the shard
        rosters in shard order.
    allow_partial:
        Serve degraded reads when some (but not all) shards fail a
        query instead of raising.
    default_k:
        ``k`` used when a query omits it (mirrors
        ``WorkspaceConfig.default_k``).
    """

    def __init__(
        self,
        shards: Sequence[object],
        *,
        names: Optional[Sequence[str]] = None,
        roster: Optional[Sequence[str]] = None,
        allow_partial: bool = False,
        default_k: int = 5,
        telemetry: bool = True,
    ) -> None:
        if not shards:
            raise ValidationError("a sharded workspace needs >= 1 shard")
        self._shards: List[object] = list(shards)
        if names is None:
            names = [f"shard-{i}" for i in range(len(self._shards))]
        if len(names) != len(self._shards):
            raise ValidationError(
                f"got {len(names)} names for {len(self._shards)} shards"
            )
        self._names: List[str] = [str(name) for name in names]
        self._allow_partial = bool(allow_partial)
        self._default_k = int(default_k)
        self._lock = threading.RLock()
        self._placement: Dict[str, int] = {}
        self._counts: List[int] = [0] * len(self._shards)
        for index, shard in enumerate(self._shards):
            for identifier in shard.identifiers:
                if identifier in self._placement:
                    raise ServerError(
                        f"identifier {identifier!r} is stored on more than "
                        f"one shard; the shard set is not a partition"
                    )
                self._placement[identifier] = index
                self._counts[index] += 1
        if roster is None:
            roster = [
                identifier
                for shard in self._shards
                for identifier in shard.identifiers
            ]
        self._roster: List[str] = [str(identifier) for identifier in roster]
        if set(self._roster) != set(self._placement) \
                or len(self._roster) != len(self._placement):
            raise ServerError(
                "roster does not list exactly the identifiers stored "
                "across the shards"
            )
        # Construction-time telemetry decision (null-object pattern —
        # RPR204: no truthiness branches on telemetry downstream).
        self._metrics: MetricsRegistry = (
            NULL_REGISTRY if telemetry is False else MetricsRegistry()
        )
        m = self._metrics
        self._m_queries = m.counter(
            "repro_sharded_queries_total",
            "Scatter-gather queries by outcome (complete / partial).",
            labels=("outcome",),
        )
        self._m_query_seconds = m.histogram(
            "repro_sharded_query_seconds",
            "End-to-end scatter-gather query wall time.",
        )
        self._m_shard_errors = m.counter(
            "repro_shard_errors_total",
            "Failed shard sub-queries, by shard.",
            labels=("shard",),
        )
        self._g_shards = m.gauge(
            "repro_shards", "Shards in the logical workspace."
        )
        self._g_shards.set(len(self._shards))
        self._g_shard_live = m.gauge(
            "repro_shard_live_series", "Live series per shard.",
            labels=("shard",),
        )
        self._g_shard_healthy = m.gauge(
            "repro_shard_healthy",
            "1 when the shard answered its last health probe, else 0.",
            labels=("shard",),
        )
        self._g_shard_snapshot = m.gauge(
            "repro_shard_snapshot_version",
            "Serving snapshot version last reported per shard.",
            labels=("shard",),
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_names(self) -> List[str]:
        return list(self._names)

    @property
    def identifiers(self) -> List[str]:
        """Stored identifiers in global insertion order."""
        with self._lock:
            return list(self._roster)

    def __len__(self) -> int:
        with self._lock:
            return len(self._roster)

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    # ------------------------------------------------------------------ #
    # Mutation (routed by identifier hash)
    # ------------------------------------------------------------------ #
    def add(
        self,
        values: Union[Sequence[float], np.ndarray],
        identifier: Optional[str] = None,
        label: Optional[int] = None,
    ) -> str:
        """Add one series to its hash-designated shard.

        Auto-generated identifiers follow the single-workspace scheme
        (``series-%05d`` skipping taken names) against the *global*
        roster, so a workload moved from one workspace to a shard set
        keeps producing the same names.
        """
        with self._lock:
            if identifier is None:
                counter = len(self._roster)
                taken = set(self._roster)
                identifier = f"series-{counter:05d}"
                while identifier in taken:
                    counter += 1
                    identifier = f"series-{counter:05d}"
            else:
                identifier = str(identifier)
                if identifier in self._placement:
                    raise ValidationError(
                        f"identifier {identifier!r} is already stored in "
                        f"this workspace"
                    )
            home = shard_of(identifier, len(self._shards))
            self._shards[home].add(values, identifier=identifier, label=label)
            self._roster.append(identifier)
            self._placement[identifier] = home
            self._counts[home] += 1
            return identifier

    def remove(self, identifier: str) -> None:
        """Remove one series from the shard that stores it."""
        with self._lock:
            identifier = str(identifier)
            home = self._placement.get(identifier)
            if home is None:
                raise WorkspaceError(
                    f"no series stored under identifier {identifier!r}"
                )
            self._shards[home].remove(identifier)
            self._roster.remove(identifier)
            del self._placement[identifier]
            self._counts[home] -= 1

    def build_index(self) -> None:
        """(Re)build the inverted index on every non-empty shard."""
        with self._lock:
            targets = [
                shard for shard, count in zip(self._shards, self._counts)
                if count
            ]
        for shard in targets:
            shard.build_index()

    # ------------------------------------------------------------------ #
    # Scatter-gather query
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
        """k nearest stored series, scatter-gathered across the shards.

        Signature-compatible with :meth:`Workspace.query`; the merged
        result carries per-shard snapshot versions in
        ``shard_versions`` and — for degraded reads — the shards that
        failed in ``failed_shards``.  Each ``RemoteWorkspace`` shard is
        asked on a thread of its own, started first; the in-process
        shards then answer on the calling thread, in shard order, and
        the remote threads are joined last.  A shard that raises an
        ``Exception`` has failed; any other exception (from a thread,
        after the join) propagates.
        """
        started = time.perf_counter()
        k = self._default_k if k is None else int(k)
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        with self._lock:
            order = {
                identifier: position
                for position, identifier in enumerate(self._roster)
            }
            targets = [
                (self._names[i], self._shards[i])
                for i, count in enumerate(self._counts)
                if count
            ]
        if not targets:
            raise WorkspaceError(
                "cannot query an empty workspace (no live series)"
            )

        outcomes: List[object] = [None] * len(targets)

        def scatter(slot: int, shard: object) -> None:
            try:
                outcomes[slot] = shard.query(
                    values, k,
                    mode=mode,
                    candidates=candidates,
                    exclude_identifier=exclude_identifier,
                )
            except Exception as exc:  # noqa: BLE001 - gathered below
                outcomes[slot] = exc

        def scatter_remote(slot: int, shard: object) -> None:
            try:
                scatter(slot, shard)
            except BaseException as exc:  # noqa: BLE001 - re-raised after the join
                outcomes[slot] = exc

        # A lone shard has nothing to overlap with and answers inline too.
        remote = [
            isinstance(shard, RemoteWorkspace) and len(targets) > 1
            for _, shard in targets
        ]
        threads = [
            threading.Thread(
                target=scatter_remote, args=(slot, shard),
                name=f"repro-scatter-{name}", daemon=True,
            )
            for slot, (name, shard) in enumerate(targets)
            if remote[slot]
        ]
        for thread in threads:
            thread.start()
        for slot, (_, shard) in enumerate(targets):
            if not remote[slot]:
                scatter(slot, shard)
        for thread in threads:
            thread.join()
        for outcome in outcomes:
            if isinstance(outcome, BaseException) and not isinstance(outcome, Exception):
                raise outcome
        # Validation failures are the caller's bug, not shard
        # unavailability: re-raise them verbatim, and count no shard
        # error, so the sharded and single-workspace surfaces reject bad
        # input identically.
        for outcome in outcomes:
            if isinstance(outcome, (ValidationError, TypeError)):
                raise outcome

        answered: List[Tuple[str, WorkspaceQueryResult]] = []
        failed: List[Tuple[str, BaseException]] = []
        for (name, _), outcome in zip(targets, outcomes):
            if isinstance(outcome, WorkspaceQueryResult):
                answered.append((name, outcome))
            else:
                self._m_shard_errors.labels(shard=name).inc()
                failed.append((name, outcome))
        if failed:
            if not self._allow_partial or not answered:
                name, exc = failed[0]
                raise WorkspaceError(
                    f"shard {name!r} failed the scatter fan-out "
                    f"({len(failed)}/{len(targets)} shards down): {exc}"
                ) from exc

        remote_names = {
            name for (name, _), is_remote in zip(targets, remote) if is_remote
        }
        merged = self._merge(answered, order, k, mode, remote_names)
        merged = dataclasses.replace(
            merged,
            failed_shards=tuple(name for name, _ in failed),
        )
        elapsed = time.perf_counter() - started
        if merged.trace is not None:
            # In-process shards answer one after another, so their
            # stages add up to the end-to-end wall time, as a single
            # workspace's do.  A remote shard's stage overlaps the
            # others, so with remote shards the stage sum may exceed it.
            merged.trace.finish(elapsed)
        self._m_queries.labels(
            outcome="partial" if failed else "complete"
        ).inc()
        self._m_query_seconds.observe(elapsed)
        return merged

    def _merge(
        self,
        answered: List[Tuple[str, WorkspaceQueryResult]],
        order: Dict[str, int],
        k: int,
        requested_mode: str,
        remote_names: Set[str],
    ) -> WorkspaceQueryResult:
        """Merge per-shard top-k lists into the global result.

        The merge key ``(distance, global insertion position)`` equals
        the single-workspace engine's ordering, and hit ``index``
        fields are remapped from shard-local to global live-roster
        positions — so a complete merge is bit-identical (ids, indices,
        distances, labels) to the unsharded query.

        The merged ``generation_seconds`` and ``rerank_seconds`` are the
        fan-out's critical path: the sum over the in-process shards,
        which answer one after another, or the slowest of the shards in
        *remote_names*, which answer alongside them, whichever is longer.
        """
        results = [result for _, result in answered]
        ranked = sorted(
            (hit for result in results for hit in result.hits),
            key=lambda hit: (hit.distance, order[hit.identifier]),
        )[:k]
        hits = tuple(
            dataclasses.replace(hit, index=order[hit.identifier])
            for hit in ranked
        )
        modes = {result.mode for result in results}
        mode = modes.pop() if len(modes) == 1 else "mixed"
        trace = self._merge_traces(answered)
        return WorkspaceQueryResult(
            hits=hits,
            mode=mode,
            requested_mode=str(requested_mode),
            k=k,
            collection_size=sum(r.collection_size for r in results),
            candidates_generated=sum(r.candidates_generated for r in results),
            generation_seconds=_critical_path(
                answered, remote_names, "generation_seconds"
            ),
            rerank_seconds=_critical_path(answered, remote_names, "rerank_seconds"),
            stats=EngineStats.merged([r.stats for r in results]),
            trace=trace,
            snapshot_version=max(r.snapshot_version for r in results),
            shard_versions=tuple(
                (name, result.snapshot_version) for name, result in answered
            ),
        )

    @staticmethod
    def _merge_traces(
        answered: List[Tuple[str, WorkspaceQueryResult]]
    ) -> Optional[QueryTrace]:
        """One scatter-level trace with a stage per answering shard."""
        if all(result.trace is None for _, result in answered):
            return None
        reference = next(
            result.trace for _, result in answered
            if result.trace is not None
        )
        trace = QueryTrace(
            mode=reference.mode,
            requested_mode=reference.requested_mode,
            k=reference.k,
            collection_size=sum(
                result.collection_size for _, result in answered
            ),
            candidates_generated=sum(
                result.candidates_generated for _, result in answered
            ),
        )
        for name, result in answered:
            attributes: Dict[str, object] = {
                "shard": name,
                "mode": result.mode,
                "snapshot_version": result.snapshot_version,
            }
            seconds = result.elapsed_seconds
            if result.trace is not None:
                seconds = result.trace.total_seconds
            trace.add_stage(f"shard:{name}", seconds, **attributes)
        trace.attributes["shards"] = len(answered)
        return trace

    # ------------------------------------------------------------------ #
    # Health / stats / metrics
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        """Per-shard liveness: probes every shard's ``stats()``.

        ``status`` is ``ok`` (all shards answered), ``degraded`` (some
        did) or ``failed`` (none did); the per-shard entries carry live
        series counts and snapshot versions for the shards that
        answered and the error string for those that did not.
        """
        entries: List[Dict[str, object]] = []
        healthy = 0
        for name, shard in zip(self._names, self._shards):
            try:
                stats = shard.stats()
            except Exception as exc:  # noqa: BLE001 - probe, not query
                self._g_shard_healthy.labels(shard=name).set(0)
                entries.append({
                    "shard": name,
                    "healthy": False,
                    "error": f"{type(exc).__name__}: {exc}",
                })
                continue
            healthy += 1
            self._g_shard_healthy.labels(shard=name).set(1)
            self._g_shard_live.labels(shard=name).set(
                int(stats.get("num_series", 0))
            )
            self._g_shard_snapshot.labels(shard=name).set(
                int(stats.get("snapshot_version", 0))
            )
            entries.append({
                "shard": name,
                "healthy": True,
                "num_series": stats.get("num_series", 0),
                "snapshot_version": stats.get("snapshot_version", 0),
                "has_index": stats.get("index") is not None,
            })
        if healthy == len(self._shards):
            status = "ok"
        elif healthy:
            status = "degraded"
        else:
            status = "failed"
        return {
            "status": status,
            "allow_partial": self._allow_partial,
            "num_shards": len(self._shards),
            "healthy_shards": healthy,
            "shards": entries,
        }

    def stats(self) -> Dict[str, object]:
        """Workspace-shaped summary plus the per-shard health report."""
        health = self.health()
        with self._lock:
            num_series = len(self._roster)
            identifiers = list(self._roster)
        return {
            "path": None,
            "num_series": num_series,
            "identifiers": identifiers,
            "snapshot_version": max(
                (int(entry.get("snapshot_version", 0))
                 for entry in health["shards"] if entry.get("healthy")),
                default=0,
            ),
            "sharding": health,
        }

    def metrics_prometheus(self) -> str:
        """Prometheus text for the scatter-gather tier.

        Renders this object's own registry (fan-out counters, per-shard
        health/liveness gauges refreshed by a health probe); per-shard
        engine metrics stay on the shards, each of which exposes its own
        ``/metrics`` when served individually.
        """
        self.health()
        return self._metrics.render_prometheus()

    def close(self) -> None:
        """Close every shard (best effort: all are attempted)."""
        for shard in self._shards:
            close = getattr(shard, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:  # noqa: BLE001 - best-effort shutdown
                    pass


def _critical_path(
    answered: List[Tuple[str, WorkspaceQueryResult]],
    remote_names: Set[str],
    field: str,
) -> float:
    """One stage's wall over a fan-out: the in-process shards' sum, or
    the slowest remote shard if that is longer."""
    inline = sum(
        getattr(result, field) for name, result in answered
        if name not in remote_names
    )
    return max(
        [inline] + [
            getattr(result, field) for name, result in answered
            if name in remote_names
        ]
    )


def split_workspace(
    source: Workspace,
    num_shards: int,
    *,
    build_index: Optional[bool] = None,
    allow_partial: bool = False,
) -> ShardedWorkspace:
    """Partition one workspace into an in-process shard set.

    Every stored series moves to its :func:`shard_of` home shard (same
    config, in-memory); the source's insertion order becomes the global
    roster, preserving single-workspace tie-breaking.  A series carries
    the salient features the source has extracted for it, so building
    the shards' indexes extracts nothing again; one the source has
    deferred stays deferred.  ``build_index`` defaults to mirroring the
    source (shards index themselves when the source has a fresh index);
    empty shards are left unindexed.
    """
    if num_shards < 1:
        raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
    shards = [Workspace(source.config) for _ in range(num_shards)]
    labels = dict(zip(source.identifiers, source.labels))
    for identifier in source.identifiers:
        shard = shards[shard_of(identifier, num_shards)]
        values = source.series_of(identifier)
        shard.add(values, identifier=identifier, label=labels[identifier])
        if source._store.has_features(identifier):
            shard._store.add_series(
                identifier, values, features=source._store.features_of(identifier)
            )
    sharded = ShardedWorkspace(
        shards,
        roster=source.identifiers,
        allow_partial=allow_partial,
        default_k=source.config.default_k,
    )
    if build_index is None:
        build_index = source.has_index
    if build_index:
        sharded.build_index()
    return sharded


__all__ = ["ShardedWorkspace", "shard_of", "split_workspace"]
