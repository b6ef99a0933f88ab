"""Execution backends for the batch distance engine.

Three strategies orchestrate the same per-query cascade:

* ``serial`` — the transparent reference path: per-pair lower bounds and
  per-pair DTW kernels, one candidate at a time.
* ``vectorized`` — batched numpy lower bounds over the stacked collection
  and (for shared-band constraint families over equal-length collections)
  the lock-step DP kernel :func:`repro.dtw.banded.banded_dtw_batch`, run
  as one query against stacked candidates under one band; the sliding
  stream matchers run the same kernel on their windows.
* ``multiprocessing`` — a process pool that fans whole queries out to
  workers; each worker runs the vectorised per-query path.  On platforms
  with ``fork`` the engine state (series matrix, envelopes, salient-feature
  caches) is inherited copy-on-write, so nothing is re-extracted or
  re-pickled per task; with ``spawn`` the state is shipped once per worker
  through the pool initializer.

All three produce identical distances and k-NN rankings; the equivalence
test suite (``tests/test_engine_equivalence.py``) enforces it.

Backends are agnostic to how the engine stores its collection: the
engine's prepared state is segmented (immutable per-segment arrays
shared structurally between derived serving snapshots, with tombstone
masks for removals), and every backend receives flat per-candidate
views gathered from the **live** slots only — a derived snapshot and a
from-scratch engine hand a backend byte-identical inputs.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import Any, Callable, List, Optional, Sequence

from ..exceptions import ValidationError

BACKENDS = ("serial", "vectorized", "multiprocessing")

# Worker-side state installed by the pool initializer.  With the fork start
# method this is a reference into the parent's (copy-on-write) memory.
_WORKER_STATE: Any = None


def resolve_backend(name: Optional[str]) -> str:
    """Normalise and validate a backend name (default ``serial``)."""
    if name is None:
        return "serial"
    key = str(name).strip().lower()
    aliases = {
        "serial": "serial",
        "sequential": "serial",
        "vectorized": "vectorized",
        "vectorised": "vectorized",
        "numpy": "vectorized",
        "multiprocessing": "multiprocessing",
        "mp": "multiprocessing",
        "process": "multiprocessing",
    }
    try:
        return aliases[key]
    except KeyError as exc:
        raise ValidationError(
            f"unknown engine backend {name!r}; known backends: "
            f"{', '.join(BACKENDS)}"
        ) from exc


def default_num_workers() -> int:
    """Worker count when the caller does not specify one."""
    return max(1, os.cpu_count() or 1)


def _init_worker(state: Any) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _dispatch(task):
    func, payload = task
    return func(_WORKER_STATE, payload)


def run_parallel(
    state: Any,
    func: Callable[[Any, Any], Any],
    payloads: Sequence[Any],
    num_workers: Optional[int] = None,
) -> List[Any]:
    """Map ``func(state, payload)`` over payloads with a process pool.

    ``func`` must be a module-level callable (pickled by reference) and
    ``state`` must either survive a fork or be picklable (spawn fallback).
    With one worker (or one payload) the map degrades to an in-process
    loop, so callers need no special-casing.
    """
    items = list(payloads)
    workers = num_workers if num_workers is not None else default_num_workers()
    workers = max(1, min(int(workers), len(items))) if items else 1
    if workers == 1 or len(items) <= 1:
        return [func(state, payload) for payload in items]

    # Prefer copy-on-write sharing only where fork is actually safe: on
    # macOS fork is still *available* but unsafe with threaded numpy /
    # Accelerate (the platform default moved to spawn for a reason), so
    # everywhere except Linux we respect the platform default method.
    if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    else:
        context = multiprocessing.get_context()
    chunksize = max(1, len(items) // (workers * 4))
    with context.Pool(
        processes=workers, initializer=_init_worker, initargs=(state,)
    ) as pool:
        return pool.map(
            _dispatch, [(func, payload) for payload in items], chunksize=chunksize
        )
