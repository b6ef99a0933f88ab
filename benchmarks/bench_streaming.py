"""Streaming benchmark: online monitor vs. naive per-tick recompute.

Measures end-to-end monitoring throughput (stream points per second) of
the streaming subsystem against the naive baseline that recomputes the
whole window DTW from scratch at every tick — the cost model an online
deployment would face without carried state.  Three sections:

* **Sliding cascade vs. naive scan** — the headline comparison: a
  10k-point stream monitored for 4 registered patterns through
  :class:`repro.streaming.StreamMonitor` (LB_Kim and LB_Keogh over each
  block of windows, the band-envelope bound for adaptive constraints,
  early-abandoning banded DTW) versus
  :func:`repro.streaming.offline.naive_sliding_scan` per pattern.  Both
  sides are verified to report *identical* match intervals and distances
  before the speedup is printed.
* **SPRING throughput** — the carried-column subsequence matcher's
  points/sec (its naive counterpart is O(stream) per tick and is only
  timed on a short prefix to keep the benchmark bounded).
* **Incremental extraction** — :class:`repro.streaming.IncrementalExtractor`
  hop-based feature maintenance versus batch re-extraction every tick.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_streaming.py \
        --length 10000 --patterns 4 --pattern-length 128

The acceptance bar for the streaming PR: on a 10k-point stream with 4
registered patterns, the cascaded monitor must be at least 5x faster
than the naive per-tick recompute baseline while reporting identical
matches.
"""

from __future__ import annotations

import argparse
import time
from typing import List

import numpy as np

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.core.features import extract_salient_features
from repro.datasets.generators import embed_pattern_stream, make_stream_patterns
from repro.streaming import IncrementalExtractor, StreamBuffer, StreamMonitor
from repro.streaming.offline import (
    calibrate_thresholds,
    naive_sliding_scan,
    naive_spring_scan,
)
from repro.utils.rng import rng_from_seed
from repro.utils.tables import format_table


def run_sliding_section(values, patterns, truth, config, args, rows) -> float:
    thresholds = calibrate_thresholds(
        values, patterns, truth, config, constraint=args.constraint
    )

    # Naive baseline: full recompute per tick, per pattern.
    start = time.perf_counter()
    naive_matches = []
    for index, pattern in enumerate(patterns):
        matches, _ = naive_sliding_scan(
            values, pattern, thresholds[index],
            constraint=args.constraint, config=config,
            name=f"pattern-{index:03d}",
        )
        naive_matches.append(matches)
    naive_seconds = time.perf_counter() - start

    # Online monitor with the full cascade.
    monitor = StreamMonitor(config)
    monitor.add_stream("bench", capacity=2 * args.pattern_length + 64)
    for index, pattern in enumerate(patterns):
        monitor.add_pattern(
            pattern, name=f"pattern-{index:03d}", threshold=thresholds[index],
            mode="sliding", constraint=args.constraint,
        )
    start = time.perf_counter()
    online = monitor.extend("bench", values) + monitor.finalize("bench")
    online_seconds = time.perf_counter() - start

    # Equivalence check before any timing is trusted.
    identical = True
    for index in range(len(patterns)):
        mine = sorted(
            [m for m in online if m.pattern == f"pattern-{index:03d}"],
            key=lambda m: m.start,
        )
        theirs = naive_matches[index]
        if len(mine) != len(theirs):
            identical = False
            break
        for a, b in zip(mine, theirs):
            if (a.start, a.end) != (b.start, b.end) or not np.isclose(
                a.distance, b.distance, rtol=0, atol=1e-9
            ):
                identical = False
                break
    speedup = naive_seconds / online_seconds if online_seconds > 0 else float("inf")
    total = sum(
        monitor.stats(f"pattern-{index:03d}").pruned
        for index in range(len(patterns))
    )
    evaluated = sum(
        monitor.stats(f"pattern-{index:03d}").evaluated
        for index in range(len(patterns))
    )
    rows.append([
        "naive per-tick recompute", f"{naive_seconds:.3f}",
        f"{values.size / naive_seconds:,.0f}", "1.0", "-", "yes",
    ])
    rows.append([
        "monitor (cascade)", f"{online_seconds:.3f}",
        f"{values.size / online_seconds:,.0f}", f"{speedup:.1f}",
        f"{total / evaluated:.1%}" if evaluated else "-",
        "yes" if identical else "NO",
    ])
    if not identical:
        raise SystemExit("FAIL: online matches differ from the naive scan")
    return speedup


def run_spring_section(values, patterns, truth, args, rows) -> None:
    thresholds = calibrate_thresholds(
        values, patterns, truth, mode="spring", slack=1.1
    )

    monitor = StreamMonitor()
    monitor.add_stream("bench", capacity=2 * args.pattern_length + 64)
    for index, pattern in enumerate(patterns):
        monitor.add_pattern(
            pattern, name=f"pattern-{index:03d}", threshold=thresholds[index],
            mode="spring",
        )
    start = time.perf_counter()
    monitor.extend("bench", values)
    monitor.finalize("bench")
    online_seconds = time.perf_counter() - start
    rows.append([
        "SPRING (carried columns)", f"{online_seconds:.3f}",
        f"{values.size / online_seconds:,.0f}", "-", "-", "-",
    ])

    # The naive SPRING baseline rebuilds an O(t x m) table per tick; time
    # it on a short prefix only (it is quadratic in the prefix length).
    prefix = values[: min(args.spring_naive_prefix, values.size)]
    start = time.perf_counter()
    naive_spring_scan(prefix, patterns[0], thresholds[0])
    naive_seconds = time.perf_counter() - start
    rows.append([
        f"naive SPRING ({prefix.size}-pt prefix, 1 pattern)",
        f"{naive_seconds:.3f}",
        f"{prefix.size / naive_seconds:,.0f}", "-", "-", "-",
    ])


def run_extractor_section(values, config, args, rows) -> None:
    window = min(256, max(64, args.pattern_length))
    slice_length = min(values.size, 4 * window)
    chunk = values[:slice_length]

    extractor = IncrementalExtractor(window, config)
    buffer = StreamBuffer(window)
    start = time.perf_counter()
    for value in chunk:
        buffer.append(value)
        extractor.observe(buffer)
    incremental_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for t in range(window - 1, slice_length):
        extract_salient_features(chunk[t - window + 1: t + 1], config)
    batch_seconds = time.perf_counter() - start

    speedup = batch_seconds / incremental_seconds if incremental_seconds else float("inf")
    stats = extractor.stats
    described = stats.descriptors_reused + stats.descriptors_computed
    rows.append([
        f"batch extraction per tick ({slice_length} pts)",
        f"{batch_seconds:.3f}",
        f"{slice_length / batch_seconds:,.0f}", "1.0", "-", "-",
    ])
    rows.append([
        f"incremental extractor (hop={extractor.hop}, "
        f"{stats.descriptors_reused / described if described else 0.0:.0%} "
        f"descriptor reuse)",
        f"{incremental_seconds:.3f}",
        f"{slice_length / incremental_seconds:,.0f}", f"{speedup:.1f}", "-", "-",
    ])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=10000)
    parser.add_argument("--patterns", type=int, default=4)
    parser.add_argument("--pattern-length", type=int, default=128)
    parser.add_argument("--occurrences", type=int, default=3)
    parser.add_argument("--constraint", default="fc,fw")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--spring-naive-prefix", type=int, default=600)
    parser.add_argument("--quick", action="store_true",
                        help="CI dry-run sizes (overrides length/patterns)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when the cascade speedup falls "
                             "below this factor")
    args = parser.parse_args()
    if args.quick:
        args.length = min(args.length, 1500)
        args.patterns = min(args.patterns, 2)
        args.pattern_length = min(args.pattern_length, 64)
        args.spring_naive_prefix = min(args.spring_naive_prefix, 300)

    rng = rng_from_seed(args.seed)
    patterns = make_stream_patterns(args.patterns, args.pattern_length, rng)
    values, truth = embed_pattern_stream(
        args.length, patterns, rng, occurrences_per_pattern=args.occurrences
    )
    config = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))

    print(f"Stream: {values.size} points, {len(patterns)} patterns of "
          f"length {args.pattern_length}, {len(truth)} embedded occurrences, "
          f"constraint {args.constraint}, seed {args.seed}")
    print()

    rows: List[List[object]] = []
    speedup = run_sliding_section(values, patterns, truth, config, args, rows)
    run_spring_section(values, patterns, truth, args, rows)
    run_extractor_section(values, config, args, rows)
    print(format_table(
        ["configuration", "seconds", "points/sec", "speedup", "pruned",
         "matches identical"],
        rows, title="Streaming throughput",
    ))
    print()
    print(f"cascade speedup over naive per-tick recompute: {speedup:.1f}x")
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below required "
              f"{args.min_speedup:.1f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
