"""Scaling benchmark: batch distance engine vs. the seed sequential path.

Measures end-to-end k-NN retrieval wall-clock across collection sizes and
worker counts, comparing

* ``seed`` — the seed repository's sequential ``TimeSeriesSearchEngine``
  algorithm, reproduced literally below (LB_Keogh-ranked candidates, no
  LB_Kim stage, no early abandoning, one pair at a time) so the baseline
  stays fixed as the library evolves;
* the cascaded :class:`repro.engine.DistanceEngine` under its three
  backends, with the multiprocessing backend swept over worker counts.

Every engine configuration is checked against the engine's contract, the
exhaustive per-pair ranking (``SDTW.distance`` of every pair, by distance
then index), and the script exits 1 when any engine row reads ``NO``.
The seed loop prunes with LB_Keogh at a 10% radius, which bounds only
the Sakoe-Chiba family, so under an adaptive constraint it may miss true
neighbours: its agreement is reported but not gated.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py \
        --sizes 50,100,200 --length 256 --queries 10 --k 10 --workers 1,2,4

The acceptance bar for the engine PR: on a synthetic 200-series collection
(length 256), the multiprocessing + cascade engine must answer a 10-query
k-NN workload at least 3x faster than the seed sequential path.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SDTWConfig
from repro.core.sdtw import SDTW
from repro.datasets.synthetic import make_gun_like
from repro.dtw.lower_bounds import keogh_envelope, lb_keogh
from repro.engine import DistanceEngine
from repro.utils.preprocessing import resample_linear
from repro.utils.tables import format_table


def build_collection(num_series: int, length: int, seed: int):
    """A labelled synthetic collection of equal-length series."""
    dataset = make_gun_like(num_series=num_series, seed=seed)
    series = [resample_linear(ts.values, length) for ts in dataset]
    labels = [ts.label for ts in dataset]
    identifiers = [f"s{i:05d}" for i in range(num_series)]
    return series, labels, identifiers


def seed_sequential_knn(
    series: Sequence[np.ndarray],
    queries: Sequence[np.ndarray],
    exclude: Sequence[int],
    k: int,
    constraint: str,
    lb_radius_fraction: Optional[float] = 0.10,
) -> List[Tuple[int, ...]]:
    """The seed TimeSeriesSearchEngine query loop, verbatim semantics.

    Candidates are ranked by their LB_Keogh bound, pruned against the
    running k-th best distance, and refined with a full (non-abandoning)
    sDTW computation one pair at a time.
    """
    engine = SDTW(SDTWConfig())
    envelopes = []
    for values in series:
        radius = max(1, int(round(lb_radius_fraction * values.size)))
        envelopes.append(keogh_envelope(values, radius))
        engine.extract_features(values)

    rankings: List[Tuple[int, ...]] = []
    for qi, query in enumerate(queries):
        candidates = []
        for index, values in enumerate(series):
            if index == exclude[qi]:
                continue
            radius = max(1, int(round(lb_radius_fraction * values.size)))
            bound = lb_keogh(query, values, radius, envelope=envelopes[index])
            candidates.append((bound, index))
        candidates.sort()
        hits: List[Tuple[float, int]] = []
        worst = np.inf
        for bound, index in candidates:
            if len(hits) >= k and bound > worst:
                continue
            result = engine.distance(query, series[index], constraint)
            hits.append((result.distance, index))
            hits.sort()
            if len(hits) > k:
                hits = hits[:k]
            if len(hits) == k:
                worst = hits[-1][0]
        rankings.append(tuple(index for _, index in hits))
    return rankings


def exhaustive_knn(
    series: Sequence[np.ndarray],
    queries: Sequence[np.ndarray],
    exclude: Sequence[int],
    k: int,
    constraint: str,
) -> List[Tuple[int, ...]]:
    """The engine's contract: every pair's ``SDTW.distance``, ranked by
    distance, then stored index."""
    engine = SDTW(SDTWConfig())
    rankings: List[Tuple[int, ...]] = []
    for qi, query in enumerate(queries):
        scored = sorted(
            (engine.distance(query, values, constraint).distance, index)
            for index, values in enumerate(series)
            if index != exclude[qi]
        )
        rankings.append(tuple(index for _, index in scored[:k]))
    return rankings


def run_benchmark(
    sizes: Sequence[int],
    length: int,
    num_queries: int,
    k: int,
    worker_counts: Sequence[int],
    constraint: str,
    seed: int,
) -> List[List[object]]:
    rows: List[List[object]] = []
    for size in sizes:
        series, labels, identifiers = build_collection(size, length, seed)
        queries = series[:num_queries]
        exclude_indices = list(range(num_queries))
        exclude_ids = identifiers[:num_queries]

        reference = exhaustive_knn(series, queries, exclude_indices, k, constraint)
        start = time.perf_counter()
        seed_rankings = seed_sequential_knn(
            series, queries, exclude_indices, k, constraint
        )
        seed_seconds = time.perf_counter() - start
        rows.append([
            size, "seed sequential", "-", seed_seconds, 1.0,
            "yes" if seed_rankings == reference else "no (not gated)",
        ])

        configurations = [("serial", None), ("vectorized", None)]
        configurations += [("multiprocessing", w) for w in worker_counts]
        for backend, workers in configurations:
            engine = DistanceEngine(
                constraint, backend=backend, num_workers=workers
            )
            for ident, values, label in zip(identifiers, series, labels):
                engine.add(values, identifier=ident, label=label)
            engine.prepare()
            start = time.perf_counter()
            result = engine.knn(queries, k=k, exclude_identifiers=exclude_ids)
            elapsed = time.perf_counter() - start
            identical = result.rankings() == reference
            rows.append([
                size,
                f"engine {backend}",
                "-" if workers is None else workers,
                elapsed,
                seed_seconds / elapsed if elapsed > 0 else float("inf"),
                "yes" if identical else "NO",
            ])
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="50,100,200",
                        help="comma-separated collection sizes")
    parser.add_argument("--length", type=int, default=256,
                        help="series length after resampling")
    parser.add_argument("--queries", type=int, default=10,
                        help="number of queries per configuration")
    parser.add_argument("--k", type=int, default=10, help="neighbours per query")
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts for multiprocessing")
    parser.add_argument("--constraint", default="fc,fw",
                        help="refinement constraint family")
    parser.add_argument("--seed", type=int, default=7, help="generation seed")
    args = parser.parse_args(list(argv) if argv is not None else None)

    sizes = [int(v) for v in args.sizes.split(",") if v]
    workers = [int(v) for v in args.workers.split(",") if v]
    rows = run_benchmark(sizes, args.length, args.queries, args.k, workers,
                         args.constraint, args.seed)
    print(format_table(
        ["series", "configuration", "workers", "seconds", "speedup", "exact"],
        rows,
        title=(f"Engine scaling vs. seed sequential path "
               f"(length={args.length}, queries={args.queries}, k={args.k}, "
               f"constraint={args.constraint})"),
    ))
    worst = min(
        (row[4] for row in rows if str(row[1]).startswith("engine multiprocessing")),
        default=0.0,
    )
    print(f"\nminimum multiprocessing speedup over seed: {worst:.2f}x")
    mismatched = [f"{row[1]} at {row[0]} series" for row in rows if row[5] == "NO"]
    if mismatched:
        print("rankings differ from the exhaustive per-pair ranking: "
              f"{', '.join(mismatched)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
