"""Span recorder for the traced benchmark runs.

The recorder measures the program from outside: it wraps public
functions and methods of ``repro`` (including the names the engine and
the streaming matchers bind into their own modules at import time) and
records one span per call.  A span holds its name, start, end, parent
and the id of the op it belongs to; parents come from a thread-local
stack, so nested calls form a tree.  Spans stay in memory until the run
ends and are then written out as JSON lines.

A layer's self time is the duration of its spans minus the part their
child spans cover.  Every span belongs to the layer named by the prefix
of its name (``dtw.banded_dtw`` -> ``dtw``), so the self times of all
layers along an op add up to the op's root span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module path, attribute path, span name).  An attribute path with a
#: dot names a method on a class of that module.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    # dtw: the DP kernels, under every name a caller bound them to.
    ("repro.engine.engine", "banded_dtw", "dtw.banded_dtw"),
    ("repro.engine.engine", "banded_dtw_batch", "dtw.banded_dtw_batch"),
    ("repro.streaming.subsequence", "banded_dtw", "dtw.banded_dtw"),
    # engine: the cascade and its lower bounds.
    ("repro.engine.engine", "DistanceEngine.query", "engine.query"),
    ("repro.engine.engine", "kim_profile", "engine.bounds"),
    ("repro.engine.engine", "lb_kim", "engine.bounds"),
    ("repro.engine.engine", "lb_kim_batch", "engine.bounds"),
    ("repro.engine.engine", "lb_keogh", "engine.bounds"),
    ("repro.engine.engine", "lb_keogh_batch", "engine.bounds"),
    ("repro.engine.engine", "_global_keogh_one", "engine.bounds"),
    ("repro.engine.engine", "_global_keogh_batch", "engine.bounds"),
    # core: feature matching and band construction (adaptive constraints).
    ("repro.streaming.subsequence", "match_salient_features", "core.matching"),
    ("repro.streaming.subsequence", "prune_inconsistent_pairs", "core.matching"),
    ("repro.streaming.subsequence", "build_interval_partition", "core.matching"),
    ("repro.streaming.subsequence", "build_constraint_band", "core.matching"),
    # service: the Workspace facade and its snapshot bookkeeping.
    ("repro.service.workspace", "Workspace.query", "service.query"),
    # streaming: the monitor, its matchers and the shared extractor.
    ("repro.streaming.monitor", "StreamMonitor.extend", "streaming.extend"),
    ("repro.streaming.incremental", "IncrementalExtractor.refresh",
     "streaming.extract"),
)


class SpanRecorder:
    """In-memory span store with a thread-local parent stack."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._op_id = 0
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, call: Callable, *args, **kwargs):
        """Run ``call`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((self._op_id, span_id, parent, name, start, end))

    def op(self, call: Callable, *args, **kwargs):
        """Run one benchmark op as a root span with a fresh op id."""
        self._op_id += 1
        return self.span("harness.op", call, *args, **kwargs)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def install(self, patches: Sequence[Tuple[str, str, str]] = PATCHES) -> None:
        """Wrap every patch target; :meth:`uninstall` restores them."""
        import importlib

        for module_name, attribute, span_name in patches:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, span_name))

    def _wrap(self, original: Callable, span_name: str) -> Callable:
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return recorder.span(span_name, original, *args, **kwargs)

        return traced

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[int, Dict[str, float]]:
        """Per op: span name -> self seconds (duration minus children)."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        per_op: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for op_id, span_id, _, name, start, end in self.spans:
            per_op[op_id][name] += (end - start) - child_time[span_id]
        return {op: dict(names) for op, names in per_op.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op_id, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "op": op_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def central_ops(latencies: Dict[int, float], low: float = 40.0,
                high: float = 60.0) -> List[int]:
    """Ops whose latency lies in the [low, high] percentile band.

    Averaging layer self times over these ops gives the breakdown of the
    median op, so the layers add up to the traced ``op_p50_ms``.
    """
    import numpy as np

    values = np.array(list(latencies.values()))
    lo, hi = np.percentile(values, [low, high])
    chosen = [op for op, value in latencies.items() if lo <= value <= hi]
    return chosen or list(latencies)


def mean_self_ms(per_op: Dict[int, Dict[str, float]], ops: Optional[List[int]],
                 names: Sequence[str]) -> float:
    """Mean over ``ops`` of the summed self time of ``names``, in ms."""
    chosen = list(per_op) if ops is None else ops
    if not chosen:
        return 0.0
    total = sum(per_op.get(op, {}).get(name, 0.0) for op in chosen for name in names)
    return 1000.0 * total / len(chosen)
