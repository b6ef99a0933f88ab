"""``workspace doctor``: invariant checks over a workspace and its layout.

The serving stack accumulates state with many cross-references — the
manifest's roster must match the feature store, index slots must
reconcile with tombstone and live counts, the serving snapshot must
cover exactly the live roster.
Each of those is an invariant some subsystem *assumes*; the doctor is
the one place that *checks* them all, so an operator can ask "is this
workspace healthy" before (or after) trusting it with traffic.

Every check yields an OK / WARN / FAIL verdict with a one-line detail:

* **FAIL** — an invariant is broken; queries may return wrong results
  or crash.  ``repro workspace doctor`` exits non-zero.
* **WARN** — degraded but correct (stale index, tombstone build-up,
  deltas past the compaction threshold, dropped diagnostic writes).
* **OK** — the invariant holds.

Checks never raise: an exception inside one check is itself a FAIL for
that check, and the remaining checks still run.  The optional probes
(one live query, a telemetry-overhead measurement) exercise the real
serving path; disable them with ``probe=False`` for a purely passive
inspection.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..telemetry.registry import MetricsRegistry

__all__ = ["DoctorCheck", "DoctorReport", "run_doctor"]

OK = "OK"
WARN = "WARN"
FAIL = "FAIL"

# Tombstoned engine-slot fraction above which the doctor flags read-path
# degradation (mirrors Workspace._MAX_DEAD_FRACTION, past which the next
# snapshot rebuilds anyway).
_DEAD_FRACTION_WARN = 0.5

# Telemetry primitives slower than this (per operation) suggest the
# observability layer itself would distort the serving path.
_TELEMETRY_WARN_SECONDS = 50e-6


@dataclass(frozen=True)
class DoctorCheck:
    """One named invariant check and its verdict."""

    name: str
    status: str
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class DoctorReport:
    """The doctor's full findings over one workspace."""

    checks: List[DoctorCheck] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """No FAIL verdicts (WARNs are degradation, not breakage)."""
        return all(check.status != FAIL for check in self.checks)

    @property
    def counts(self) -> Dict[str, int]:
        totals = {OK: 0, WARN: 0, FAIL: 0}
        for check in self.checks:
            totals[check.status] = totals.get(check.status, 0) + 1
        return totals

    def rows(self) -> List[List[str]]:
        """Table rows for the CLI report."""
        return [[check.name, check.status, check.detail] for check in self.checks]

    def static_checkers(self) -> Dict[str, List[str]]:
        """Map check name -> ``repro lint`` checker IDs that guard the
        same invariant statically (see docs/INVARIANTS.md); only
        checks present in this report are listed."""
        present = {check.name for check in self.checks}
        return {
            name: list(ids)
            for name, ids in _static_counterparts().items()
            if name in present
        }

    def to_dict(self) -> dict:
        return {
            "healthy": self.healthy,
            "counts": self.counts,
            "checks": [check.to_dict() for check in self.checks],
            "static_checkers": self.static_checkers(),
        }


def _static_counterparts() -> Dict[str, tuple]:
    """Doctor check name -> static checker IDs (from the analysis
    registry, the single source of truth for the mapping)."""
    from ..analysis import doctor_counterparts

    return doctor_counterparts()


def _run_check(
    report: DoctorReport, name: str, check: Callable[[], DoctorCheck]
) -> None:
    """Append one check's verdict; an escaping exception is its FAIL."""
    try:
        report.checks.append(check())
    except Exception as exc:  # noqa: BLE001 - the doctor must not crash
        report.checks.append(
            DoctorCheck(name, FAIL, f"check crashed: {type(exc).__name__}: {exc}")
        )


def run_doctor(workspace, *, probe: bool = True) -> DoctorReport:
    """Run every invariant check over *workspace*.

    Parameters
    ----------
    workspace:
        An open :class:`repro.service.Workspace` (in-memory or
        path-backed; path-backed workspaces additionally get their
        on-disk manifest, index format and diagnostic logs verified).
    probe:
        Also run the active probes: one live query through the serving
        snapshot and a telemetry-overhead measurement.
    """
    report = DoctorReport()
    _run_check(report, "manifest", lambda: _check_manifest(workspace))
    _run_check(report, "config", lambda: _check_config(workspace))
    _run_check(report, "store", lambda: _check_store(workspace))
    _run_check(report, "index_accounting", lambda: _check_index(workspace))
    _run_check(report, "index_format", lambda: _check_index_format(workspace))
    _run_check(report, "caches", lambda: _check_caches(workspace))
    _run_check(report, "event_log", lambda: _check_event_log(workspace))
    if probe:
        _run_check(report, "serving_snapshot", lambda: _check_snapshot(workspace))
        _run_check(report, "query_probe", lambda: _check_query_probe(workspace))
        _run_check(
            report, "telemetry_overhead",
            lambda: _check_telemetry_overhead(workspace),
        )
    return report


# ---------------------------------------------------------------------- #
# Passive checks
# ---------------------------------------------------------------------- #
def _check_manifest(workspace) -> DoctorCheck:
    from .workspace import FORMAT_NAME, FORMAT_VERSION, MANIFEST_NAME

    if workspace.path is None:
        return DoctorCheck("manifest", OK, "in-memory workspace (no manifest)")
    manifest_path = os.path.join(workspace.path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        return DoctorCheck("manifest", FAIL, f"missing {manifest_path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as exc:
        return DoctorCheck("manifest", FAIL, f"unparseable manifest: {exc}")
    if manifest.get("format") != FORMAT_NAME:
        return DoctorCheck(
            "manifest", FAIL, f"format is {manifest.get('format')!r}, "
            f"expected {FORMAT_NAME!r}"
        )
    version = int(manifest.get("version", 0))
    if version > FORMAT_VERSION:
        return DoctorCheck(
            "manifest", FAIL,
            f"format version {version} is newer than this reader "
            f"(supports <= {FORMAT_VERSION})",
        )
    listed = [str(entry["identifier"]) for entry in manifest.get("series", [])]
    roster = workspace.identifiers
    if listed != roster and not workspace._dirty:
        return DoctorCheck(
            "manifest", FAIL,
            f"manifest lists {len(listed)} series but the roster holds "
            f"{len(roster)}; the layout was modified behind the manifest",
        )
    detail = f"format v{version}, {len(listed)} series listed"
    if workspace._dirty:
        detail += " (unsaved mutations pending)"
    return DoctorCheck("manifest", OK, detail)


def _check_config(workspace) -> DoctorCheck:
    from .config import WorkspaceConfig

    rebuilt = WorkspaceConfig.from_dict(workspace.config.to_dict())
    if rebuilt != workspace.config:
        return DoctorCheck(
            "config", FAIL, "configuration does not round-trip through to_dict"
        )
    return DoctorCheck(
        "config", OK,
        f"round-trips; constraint={workspace.config.engine.constraint} "
        f"backend={workspace.config.engine.backend}",
    )


def _check_store(workspace) -> DoctorCheck:
    store = workspace._store
    roster = workspace.identifiers
    missing = [
        identifier for identifier in roster if identifier not in store
    ]
    if missing:
        return DoctorCheck(
            "store", FAIL,
            f"{len(missing)} roster series missing from the feature store "
            f"(first: {missing[0]!r})",
        )
    orphans = set(store.identifiers()) - set(roster)
    if orphans:
        return DoctorCheck(
            "store", FAIL,
            f"feature store holds {len(orphans)} series absent from the "
            f"roster (first: {sorted(orphans)[0]!r})",
        )
    empty = [i for i in roster if workspace.series_of(i).size == 0]
    if empty:
        return DoctorCheck(
            "store", FAIL, f"{len(empty)} stored series are empty"
        )
    featured = sum(1 for i in roster if store.has_features(i))
    return DoctorCheck(
        "store", OK,
        f"{len(roster)} series, features extracted for {featured}",
    )


def _check_index(workspace) -> DoctorCheck:
    persisted = workspace._index
    if persisted is None:
        return DoctorCheck(
            "index_accounting", OK, "no index built (exact scans only)"
        )
    index = persisted.index
    slots = persisted.slots
    if int(index.num_series) != len(slots):
        return DoctorCheck(
            "index_accounting", FAIL,
            f"index holds {index.num_series} slots but the slot roster "
            f"names {len(slots)}",
        )
    tombstones = list(index.tombstones)
    expected_live = len(slots) - sum(bool(t) for t in tombstones)
    if int(index.num_live) != expected_live:
        return DoctorCheck(
            "index_accounting", FAIL,
            f"num_live={index.num_live} but slots-tombstones={expected_live}",
        )
    if persisted.stale:
        return DoctorCheck(
            "index_accounting", WARN,
            "index is stale (auto queries fall back to exact scans; "
            "rebuild with build_index())",
        )
    live_names = {
        name for slot, name in enumerate(slots) if not tombstones[slot]
    }
    roster = set(workspace.identifiers)
    if live_names != roster:
        return DoctorCheck(
            "index_accounting", FAIL,
            f"live index slots cover {len(live_names)} identifiers but the "
            f"roster holds {len(roster)}; they must coincide on a fresh index",
        )
    deltas = int(index.num_delta_shards)
    limit = workspace.config.index.max_delta_shards
    if deltas > limit:
        return DoctorCheck(
            "index_accounting", WARN,
            f"{deltas} delta shards exceed max_delta_shards={limit}; "
            f"compaction is overdue",
        )
    return DoctorCheck(
        "index_accounting", OK,
        f"{index.num_live} live of {index.num_series} slots, "
        f"{deltas} delta shards, {sum(bool(t) for t in tombstones)} tombstones",
    )


def _check_index_format(workspace) -> DoctorCheck:
    from ..indexing.store import FORMAT_VERSION as INDEX_FORMAT_VERSION

    from .workspace import INDEX_DIR_NAME

    if workspace.path is None or workspace._index is None:
        return DoctorCheck(
            "index_format", OK, "no persisted index directory to verify"
        )
    manifest_path = os.path.join(
        workspace.path, INDEX_DIR_NAME, "manifest.json"
    )
    if not os.path.exists(manifest_path):
        if workspace._index.stale or workspace._dirty:
            return DoctorCheck(
                "index_format", OK,
                "index not persisted yet (stale or unsaved mutations)",
            )
        return DoctorCheck(
            "index_format", FAIL, f"missing {manifest_path}"
        )
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = int(manifest.get("version", 0))
    if version > INDEX_FORMAT_VERSION:
        return DoctorCheck(
            "index_format", FAIL,
            f"index format v{version} is newer than this reader "
            f"(supports <= {INDEX_FORMAT_VERSION})",
        )
    return DoctorCheck("index_format", OK, f"index format v{version}")


def _check_caches(workspace) -> DoctorCheck:
    persisted = workspace._index
    if persisted is None:
        return DoctorCheck("caches", OK, "no index caches to inspect")
    stats = persisted.index.postings_cache_stats()
    hits = int(stats.get("hits", 0))
    misses = int(stats.get("misses", 0))
    if hits < 0 or misses < 0:
        return DoctorCheck(
            "caches", FAIL, f"negative cache tallies: {stats}"
        )
    return DoctorCheck(
        "caches", OK,
        f"postings cache {hits} hits / {misses} misses; candidate cache "
        f"capacity {workspace.config.index.candidate_cache}",
    )


def _read_jsonl(path: str) -> Optional[str]:
    """Parse every line of a JSONL file; the first bad line's message."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                json.loads(line)
            except json.JSONDecodeError as exc:
                return f"line {number}: {exc}"
    return None


def _check_event_log(workspace) -> DoctorCheck:
    events = workspace.events
    if not events.enabled:
        return DoctorCheck(
            "event_log", OK, "telemetry disabled (no event log)"
        )
    if events.path is not None and os.path.exists(events.path):
        problem = _read_jsonl(events.path)
        if problem is not None:
            return DoctorCheck(
                "event_log", FAIL, f"corrupt {events.path}: {problem}"
            )
    if events.dropped_writes:
        return DoctorCheck(
            "event_log", WARN,
            f"{events.dropped_writes} event writes dropped (disk full or "
            f"sink unwritable); the in-memory ring is complete",
        )
    where = events.path if events.path else "ring only"
    return DoctorCheck(
        "event_log", OK,
        f"{events.events_total} events emitted ({where})",
    )


# ---------------------------------------------------------------------- #
# Active probes
# ---------------------------------------------------------------------- #
def _check_snapshot(workspace) -> DoctorCheck:
    if not len(workspace):
        return DoctorCheck(
            "serving_snapshot", OK, "empty workspace (no snapshot to build)"
        )
    snapshot = workspace._ensure_serving()
    live = int(snapshot.engine.num_live)
    roster = len(workspace.identifiers)
    if live != roster:
        return DoctorCheck(
            "serving_snapshot", FAIL,
            f"snapshot serves {live} live series but the roster holds "
            f"{roster}",
        )
    total = len(snapshot.engine)
    dead = (total - live) / total if total else 0.0
    if dead > _DEAD_FRACTION_WARN:
        return DoctorCheck(
            "serving_snapshot", WARN,
            f"{dead:.0%} of engine slots are tombstones; the next snapshot "
            f"should rebuild",
        )
    indexed = "indexed" if snapshot.searcher is not None else "exact-only"
    return DoctorCheck(
        "serving_snapshot", OK,
        f"{live} live series ({indexed}, {dead:.0%} dead slots)",
    )


def _check_query_probe(workspace) -> DoctorCheck:
    if not len(workspace):
        return DoctorCheck(
            "query_probe", OK, "empty workspace (nothing to query)"
        )
    identifier = workspace.identifiers[0]
    result = workspace.query(
        workspace.series_of(identifier), k=1, exclude_identifier=identifier
    ) if len(workspace) > 1 else workspace.query(
        workspace.series_of(identifier), k=1
    )
    if not result.hits:
        return DoctorCheck(
            "query_probe", FAIL, "probe query returned no hits"
        )
    top = result.hits[0]
    if top.identifier not in set(workspace.identifiers):
        return DoctorCheck(
            "query_probe", FAIL,
            f"probe hit {top.identifier!r} is not in the roster",
        )
    if not (top.distance >= 0.0):
        return DoctorCheck(
            "query_probe", FAIL, f"probe distance {top.distance} is invalid"
        )
    return DoctorCheck(
        "query_probe", OK,
        f"{result.mode} probe served in "
        f"{result.elapsed_seconds * 1000:.2f} ms (top: {top.identifier})",
    )


def _check_telemetry_overhead(workspace) -> DoctorCheck:
    if not workspace.metrics.enabled:
        return DoctorCheck(
            "telemetry_overhead", OK, "telemetry disabled (zero overhead)"
        )
    # Measure the instrumented primitives in isolation on a throwaway
    # registry (never polluting the workspace's own metrics): one
    # counter inc + one histogram observe approximates the per-query
    # metric work; the serving-path guarantee itself is gated end to
    # end by the CI telemetry-overhead benchmark.
    registry = MetricsRegistry()
    counter = registry.counter("repro_doctor_probe_total", "probe")
    histogram = registry.histogram("repro_doctor_probe_seconds", "probe")
    rounds = 2000
    started = time.perf_counter()
    for _ in range(rounds):
        counter.inc()
        histogram.observe(0.001)
    per_op = (time.perf_counter() - started) / (2 * rounds)
    if per_op > _TELEMETRY_WARN_SECONDS:
        return DoctorCheck(
            "telemetry_overhead", WARN,
            f"{per_op * 1e6:.1f} us per metric op (> "
            f"{_TELEMETRY_WARN_SECONDS * 1e6:.0f} us); telemetry may "
            f"distort sub-millisecond queries",
        )
    return DoctorCheck(
        "telemetry_overhead", OK,
        f"{per_op * 1e6:.2f} us per metric op",
    )
