"""Helpers shared by the workloads: closed-loop timing, memory, layer times."""

from __future__ import annotations

import resource
import time
import traceback
from typing import Callable, Dict, List, Optional

from tracer import SpanRecorder, central_ops, mean_self_ms

#: Per-layer self-time metrics and the span names whose self time they sum.
SELF_TIME_METRICS: Dict[str, tuple] = {
    "dtw.dp_ms": ("dtw.banded_dtw", "dtw.banded_dtw_batch"),
    "engine.self_ms": ("engine.query",),
    "engine.bounds_ms": ("engine.bounds",),
    "core.matching_ms": ("core.matching",),
    "service.query_self_ms": ("service.query",),
    "streaming.self_ms": ("streaming.extend", "streaming.extract"),
}
HARNESS_SPANS = ("harness.op",)


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(
    op: Callable[[int], object],
    seconds: float,
    *,
    max_ops: Optional[int] = None,
    recorder: Optional[SpanRecorder] = None,
) -> tuple:
    """Run ``op(0), op(1), ...`` back to back for ``seconds``.

    Returns ``(ops, wall_s)``; each op records its latency, whether it
    succeeded and its return value.  An op that raises counts as failed.
    """
    ops: List[dict] = []
    started = time.perf_counter()
    index = 0
    while max_ops is None or index < max_ops:
        begin = time.perf_counter()
        try:
            value = recorder.op(op, index) if recorder is not None else op(index)
            ok, error = True, None
        except Exception:  # noqa: BLE001 - an op failure is a data point
            value, ok, error = None, False, traceback.format_exc(limit=3)
        end = time.perf_counter()
        ops.append({"index": index, "latency_s": end - begin, "ok": ok,
                    "value": value, "error": error})
        index += 1
        if end - started >= seconds:
            break
    return ops, time.perf_counter() - started


def layer_times(recorder: SpanRecorder, names=SELF_TIME_METRICS) -> tuple:
    """Per-layer self ms of the median traced op, and their sum.

    Self times are averaged over the ops whose root span lies in the
    40th-60th percentile band, so they add up to the traced median op.
    """
    per_op = recorder.self_times()
    latency = {
        op: sum(per_op[op].values()) for op in per_op if op > 0
    }
    band = central_ops(latency)
    metrics = {
        metric: mean_self_ms(per_op, band, spans)
        for metric, spans in names.items()
    }
    total = sum(metrics.values()) + mean_self_ms(per_op, band, HARNESS_SPANS)
    return metrics, total
