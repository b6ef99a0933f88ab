"""Unified telemetry layer: metrics registry, per-query traces, exports.

Two cooperating halves:

* :mod:`repro.telemetry.registry` — a thread-safe, dependency-free
  metrics registry (counters, gauges, fixed-bucket latency histograms
  with p50/p95/p99 estimation) with JSON (``to_dict``) and Prometheus
  text-format (``render_prometheus``) export, plus the no-op
  :data:`NULL_REGISTRY` used when ``ServingConfig.telemetry`` is off.
* :mod:`repro.telemetry.trace` — per-query :class:`QueryTrace` spans
  carried through the serving stack via a thread-local
  (:func:`trace_scope` / :func:`current_trace`) and retained in a
  :class:`TraceRing` of recent queries.
* :mod:`repro.telemetry.events` — the structured :class:`EventLog`
  (bounded ring + rotating JSONL sink) recording every state
  transition of the serving stack, and the no-op
  :data:`NULL_EVENT_LOG` used when telemetry is off.  This is the
  flight-recorder substrate: ``Workspace.dump_flight_record()``
  bundles recent events, traces, metrics and config into one JSON
  blob.
* :mod:`repro.telemetry.profiler` — a stdlib-only wall-clock
  :class:`SamplingProfiler` (background thread over
  ``sys._current_frames()``) producing collapsed-stack output for
  per-query (``query --profile``) or windowed (``workspace profile``)
  attribution.

``repro.service.workspace.Workspace`` owns one registry, trace ring
and event log per workspace and is the integration point; ``repro
workspace stats --metrics [--format json|prom]``, ``query --trace``,
``workspace flight-record`` and ``workspace doctor`` are the CLI
surfaces.
"""

from .events import NULL_EVENT_LOG, Event, EventLog, NullEventLog, json_safe
from .profiler import ProfileReport, SamplingProfiler
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullMetricsRegistry,
)
from .trace import QueryTrace, TraceRing, TraceStage, current_trace, trace_scope

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Event",
    "EventLog",
    "MetricsRegistry",
    "NULL_EVENT_LOG",
    "NULL_REGISTRY",
    "NullEventLog",
    "NullMetricsRegistry",
    "ProfileReport",
    "QueryTrace",
    "SamplingProfiler",
    "TraceRing",
    "TraceStage",
    "current_trace",
    "json_safe",
    "trace_scope",
]
