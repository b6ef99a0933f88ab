"""Structured event log: the flight-recorder substrate of the library.

Metrics (:mod:`repro.telemetry.registry`) answer "how much, how fast, on
aggregate"; traces (:mod:`repro.telemetry.trace`) answer "where did this
one query spend its time".  Neither answers the operator question "what
happened in the last 30 seconds before this query went slow" — that is
what the event log is for: every *state transition* of the serving
stack (mutations, snapshot derivations vs rebuilds, pending-log folds,
delta appends, compactions, cache invalidations, micro-batcher request
failures, persistence) emits one structured :class:`Event` with a
component, a level and free-form fields.

Two sinks, both optional:

* a thread-safe bounded in-memory ring (the recent history bundled into
  ``Workspace.dump_flight_record()`` and attached to
  ``WorkspaceError``), and
* a rotating JSONL file (``events.jsonl`` in the workspace directory
  for path-backed workspaces) so the record survives the process.

The log is deliberately *not* on the per-query hot path: queries emit
no events (their accounting lives in metrics and traces); only state
transitions and slow queries do, so an idle or read-only workspace
writes nothing.  A query at or above ``ServingConfig.slow_query_threshold``
emits one ``slow_query`` event carrying its sealed trace; that event is
the slow-query record, and ``Workspace.slow_queries()`` reads it back
from the ring.  With ``ServingConfig.telemetry`` off and no threshold
armed the workspace holds the no-op :data:`NULL_EVENT_LOG` and every
``emit`` is one empty method call, mirroring the null metrics registry.

Events are JSON-safe by construction: field values are sanitised at
emit time (numpy scalars unwrapped, unknown objects stringified), so a
flight record always round-trips through ``json.dumps``/``loads``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "Event",
    "EventLog",
    "NULL_EVENT_LOG",
    "NullEventLog",
    "json_safe",
]

LEVELS = ("debug", "info", "warn", "error")


def json_safe(value: object) -> object:
    """Coerce *value* into something ``json.dumps`` accepts losslessly.

    Numpy scalars report as their Python equivalents via ``item()``;
    containers are sanitised recursively; anything else falls back to
    ``str``.  Used at emit time so the ring never holds objects a
    flight-record dump would choke on.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return json_safe(item())
        except (TypeError, ValueError):
            pass
    if isinstance(value, dict):
        return {str(key): json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(entry) for entry in value]
    return str(value)


@dataclass(frozen=True)
class Event:
    """One structured log record: who, what, when, plus free fields."""

    timestamp: float
    component: str
    name: str
    level: str = "info"
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {
            "timestamp": self.timestamp,
            "component": self.component,
            "name": self.name,
            "level": self.level,
        }
        if self.fields:
            payload["fields"] = dict(self.fields)
        return payload


class EventLog:
    """Thread-safe bounded event ring with an optional rotating file sink.

    Parameters
    ----------
    capacity:
        Events retained in memory (oldest evicted first).  ``0`` keeps
        no ring but still writes the file sink if one is attached.
    path:
        Optional JSONL file to append every event to; attach later with
        :meth:`attach_file` once the workspace directory is known.
    max_bytes:
        Rotation threshold for the file sink: once the file exceeds
        this size it is renamed to ``<path>.1`` (replacing any previous
        rotation) and a fresh file is started, bounding disk usage at
        roughly ``2 * max_bytes``.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 512,
        *,
        path: Optional[str] = None,
        max_bytes: int = 4_000_000,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"event ring capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.max_bytes = max(1024, int(max_bytes))
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.capacity)
        self._path: Optional[str] = None
        self._events_total = 0
        self._dropped_writes = 0
        if path is not None:
            self.attach_file(path)

    # ------------------------------------------------------------------ #
    # Sinks
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Optional[str]:
        """The attached JSONL sink path, or ``None`` (ring only)."""
        return self._path

    @property
    def events_total(self) -> int:
        """Events emitted over the log's lifetime (ring evictions included)."""
        return self._events_total

    @property
    def dropped_writes(self) -> int:
        """File-sink writes that failed (the ring still recorded them)."""
        return self._dropped_writes

    def attach_file(self, path: str) -> None:
        """Start (or switch) appending events to a JSONL file."""
        with self._lock:
            self._path = os.fspath(path)

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #
    def emit(
        self, component: str, name: str, *, level: str = "info", **fields: object
    ) -> Event:
        """Record one event in the ring and (if attached) the file sink.

        Field values are sanitised to JSON-safe equivalents; emission
        never raises for a full disk or unwritable sink — the failure
        is counted in :attr:`dropped_writes` instead, because the event
        log must stay safe to call from error paths.
        """
        if level not in LEVELS:
            level = "info"
        event = Event(
            timestamp=time.time(),  # repro: noqa[RPR201] event wall time
            component=str(component),
            name=str(name),
            level=level,
            fields={str(key): json_safe(value) for key, value in fields.items()},
        )
        with self._lock:
            self._events_total += 1
            if self.capacity:
                self._ring.append(event)
            path = self._path
            if path is not None:
                try:
                    self._write_line(path, event)
                except OSError:
                    self._dropped_writes += 1
        return event

    def _write_line(self, path: str, event: Event) -> None:
        """Append one JSONL line, rotating first when the file is full.

        Caller holds the lock; rotation keeps exactly one predecessor
        file (``<path>.1``) so disk usage stays bounded.
        """
        try:
            if os.path.getsize(path) >= self.max_bytes:
                os.replace(path, path + ".1")
        except OSError:
            pass  # no file yet — the append below creates it
        with open(path, "a", encoding="utf-8") as handle:
            json.dump(event.to_dict(), handle, separators=(",", ":"))
            handle.write("\n")

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def snapshot(
        self,
        *,
        limit: Optional[int] = None,
        component: Optional[str] = None,
        level: Optional[str] = None,
    ) -> List[Event]:
        """The retained events, oldest first, optionally filtered.

        ``limit`` keeps the *most recent* N after filtering — the shape
        a flight record wants ("the last N things that happened").
        """
        with self._lock:
            events = list(self._ring)
        if component is not None:
            events = [event for event in events if event.component == component]
        if level is not None:
            floor = LEVELS.index(level) if level in LEVELS else 0
            events = [
                event for event in events
                if LEVELS.index(event.level) >= floor
            ]
        if limit is not None and limit >= 0:
            events = events[len(events) - min(limit, len(events)):]
        return events

    def to_dicts(self, **kwargs: object) -> List[dict]:
        """JSON-ready form of :meth:`snapshot` (same filters)."""
        return [event.to_dict() for event in self.snapshot(**kwargs)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class NullEventLog:
    """No-op stand-in used when telemetry is disabled.

    Mirrors :class:`repro.telemetry.registry.NullMetricsRegistry`: one
    shared instance, every method a constant-time no-op, so call sites
    never branch on whether diagnostics are on.
    """

    enabled = False
    capacity = 0
    path = None
    events_total = 0
    dropped_writes = 0

    def attach_file(self, path: str) -> None:
        pass

    def emit(
        self, component: str, name: str, *, level: str = "info", **fields: object
    ) -> None:
        return None

    def snapshot(self, **kwargs: object) -> List[Event]:
        return []

    def to_dicts(self, **kwargs: object) -> List[dict]:
        return []

    def __len__(self) -> int:
        return 0


NULL_EVENT_LOG = NullEventLog()
"""The shared no-op event log (see :class:`NullEventLog`)."""
