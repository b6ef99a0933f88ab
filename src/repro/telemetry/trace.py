"""Per-query trace spans and the sampled ring of recent traces.

A :class:`QueryTrace` is a flat list of named stages with wall-clock
seconds and free-form numeric/str attributes (candidate counts, prune
rates, cache hits).  Traces are assembled by ``Workspace.query`` from
the cascade accounting :class:`repro.engine.stats.EngineStats` already
records — stages are *not* re-timed, so tracing adds no timers to the
inner loops.

Layers that run below the workspace (the indexed searcher's candidate
generation, for example) attach their sub-stages to the active trace
through a thread-local set by :func:`trace_scope`; when no trace is
active those calls are a single ``getattr`` returning ``None``.

``QueryTrace.finish`` closes the trace against the measured end-to-end
wall time and appends a residual ``other`` stage covering whatever the
named stages did not (snapshot pinning, result remapping), so
``sum(stage.seconds) == total_seconds`` holds exactly and per-stage
breakdowns are honest rather than merely approximate.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional

__all__ = [
    "QueryTrace",
    "TraceRing",
    "TraceStage",
    "current_trace",
    "trace_scope",
]


class _NoAttributes(Mapping):
    """The attributes of a stage that has none: one read-only empty
    mapping, shared by every such stage of every retained result."""

    __slots__ = ()

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        # Copies and pickles resolve to the one shared instance.
        return "NO_ATTRIBUTES"


NO_ATTRIBUTES: Mapping[str, object] = _NoAttributes()


def _attributes(attributes: Mapping[str, object]) -> Mapping[str, object]:
    return dict(attributes) if attributes else NO_ATTRIBUTES


@dataclass(slots=True)
class TraceStage:
    """One named span inside a query: wall seconds plus free attributes.

    A stage without attributes holds the shared read-only
    ``NO_ATTRIBUTES``.
    """

    name: str
    seconds: float
    attributes: Mapping[str, object] = field(default_factory=lambda: NO_ATTRIBUTES)

    def to_dict(self) -> dict:
        payload = {"name": self.name, "seconds": self.seconds}
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceStage":
        return cls(
            name=str(payload["name"]),
            seconds=float(payload["seconds"]),
            attributes=_attributes(payload.get("attributes") or {}),
        )


@dataclass(slots=True)
class QueryTrace:
    """Structured per-query breakdown exposed on ``WorkspaceQueryResult``.

    Mutable by design: the workspace creates it, lower layers append
    stages while it is active (see :func:`trace_scope`), and
    :meth:`finish` seals it with the measured total.
    """

    mode: str = ""
    requested_mode: str = ""
    k: int = 0
    collection_size: int = 0
    candidates_generated: int = 0
    stages: List[TraceStage] = field(default_factory=list)
    total_seconds: float = 0.0
    attributes: Dict[str, object] = field(default_factory=dict)

    def add_stage(self, name: str, seconds: float, **attributes: object) -> TraceStage:
        stage = TraceStage(name, max(0.0, float(seconds)), _attributes(attributes))
        self.stages.append(stage)
        return stage

    def stage_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def finish(self, total_seconds: float) -> None:
        """Seal the trace: record the end-to-end wall time and account
        for it fully by appending a residual ``other`` stage."""
        self.total_seconds = float(total_seconds)
        residual = self.total_seconds - self.stage_seconds()
        if residual > 0.0:
            self.add_stage("other", residual)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "requested_mode": self.requested_mode,
            "k": self.k,
            "collection_size": self.collection_size,
            "candidates_generated": self.candidates_generated,
            "total_seconds": self.total_seconds,
            "stages": [stage.to_dict() for stage in self.stages],
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryTrace":
        """Rebuild a sealed trace from its :meth:`to_dict` payload.

        Part of the query-result wire schema: the server serializes the
        trace with the result and remote clients get the same object
        shape local callers do.  The rebuilt trace is already finished —
        callers must not :meth:`finish` it again.
        """
        return cls(
            mode=str(payload.get("mode", "")),
            requested_mode=str(payload.get("requested_mode", "")),
            k=int(payload.get("k", 0)),
            collection_size=int(payload.get("collection_size", 0)),
            candidates_generated=int(payload.get("candidates_generated", 0)),
            stages=[
                TraceStage.from_dict(stage)
                for stage in payload.get("stages") or ()
            ],
            total_seconds=float(payload.get("total_seconds", 0.0)),
            attributes=dict(payload.get("attributes") or {}),
        )


class TraceRing:
    """Thread-safe fixed-capacity ring of the most recent query traces."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"trace ring capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity) if capacity else deque(maxlen=0)

    def append(self, trace: QueryTrace) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._ring.append(trace)

    def snapshot(self) -> List[QueryTrace]:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


_active = threading.local()


def current_trace() -> Optional[QueryTrace]:
    """The trace active on this thread, or ``None`` outside a query."""
    return getattr(_active, "trace", None)


@contextmanager
def trace_scope(trace: Optional[QueryTrace]) -> Iterator[Optional[QueryTrace]]:
    """Make ``trace`` the thread's active trace for the duration.

    Accepts ``None`` (telemetry disabled) so callers can wrap the query
    unconditionally; nesting restores the previous trace on exit.
    """
    previous = getattr(_active, "trace", None)
    _active.trace = trace
    try:
        yield trace
    finally:
        _active.trace = previous
