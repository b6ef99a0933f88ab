"""Batch distance engine: cascading lower bounds + pluggable backends.

The paper's central claim is *time gain* — locally relevant sDTW bands
fill far fewer DTW cells than the full O(NM) grid — and that gain only
matters at retrieval scale, where one query is compared against thousands
of stored series.  This package turns the per-pair primitives of
:mod:`repro.dtw` and :mod:`repro.core` into a collection-level engine:

Cascade stages
--------------
Per query, candidates flow through three exact (admissible) stages, each
strictly cheaper than the next, in the spirit of the LB_Keogh cascades of
Keogh's VLDB 2002 lower-bounding work (reference [7] of the paper):

1. ``LB_Kim`` — constant-time per pair, from precomputed
   first/last/min/max profiles.
2. ``LB_Keogh`` — O(L) per pair, vectorised over the whole collection;
   uses band-matched envelopes for the Sakoe–Chiba family and the
   always-admissible global envelope for every other constraint family.
3. Early-abandoning banded DTW — refinement in ascending-bound order that
   stops a dynamic program as soon as a whole row exceeds the running
   k-th-best distance.

A candidate pruned at stage *s* never pays for stage *s+1*; because every
bound underestimates the true constrained distance and abandonment only
fires when the distance provably exceeds the threshold, the k-NN result is
identical to an exhaustive scan for **every** constraint family (``full``,
Sakoe–Chiba ``fc,fw``, ``itakura``, and the paper's ``fc,aw`` / ``ac,fw``
/ ``ac,aw`` / ``ac2,aw``).

Backend selection
-----------------
``DistanceEngine(backend=...)`` picks how the cascade executes:

* ``serial`` — per-pair reference path; transparent and allocation-light.
* ``vectorized`` — numpy-batched lower bounds, and for shared-band
  constraint families over equal-length collections the lock-step DP
  kernel :func:`repro.dtw.banded.banded_dtw_batch` (re-exported here),
  which advances one grid row for dozens of candidates per numpy call
  with bit-identical distances to the serial per-pair scan.  The sliding
  stream matchers run the same kernel.
* ``multiprocessing`` — whole queries fan out to worker processes (each
  running the vectorised path); series matrices, envelopes and
  salient-feature caches are shared copy-on-write via ``fork`` where
  available.

``EngineStats`` and the paper's time-gain measure
-------------------------------------------------
Every query returns an :class:`~repro.engine.stats.EngineStats` record:
``cells_filled / total_cells`` is exactly the paper's hardware-independent
time-gain measure (Section 4.2) extended to the retrieval setting — pruned
candidates avoid their entire grid — while ``extract_seconds`` /
``matching_seconds`` / ``dp_seconds`` reproduce the Figure 17 execution
time split (tasks (a)/(b)/(c)), with ``bound_seconds`` as the cascade's
stage-0 cost.  ``repro-sdtw engine`` prints these as a table, and
``benchmarks/bench_engine_scaling.py`` measures end-to-end speedups versus
the seed sequential scan.

See ``examples/batch_retrieval.py`` for a walkthrough.
"""

from ..dtw.banded import banded_dtw_batch
from .backends import BACKENDS, default_num_workers, resolve_backend
from .engine import (
    BatchDistanceResult,
    BatchKNNResult,
    DistanceEngine,
    EngineHit,
    QueryResult,
    cascade_bounds,
    normalize_constraint,
)
from .stats import EngineStats

__all__ = [
    "BACKENDS",
    "BatchDistanceResult",
    "BatchKNNResult",
    "DistanceEngine",
    "EngineHit",
    "EngineStats",
    "QueryResult",
    "banded_dtw_batch",
    "cascade_bounds",
    "default_num_workers",
    "normalize_constraint",
    "resolve_backend",
]
