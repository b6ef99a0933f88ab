"""Indexed vs. exhaustive search: wall-clock speedup and recall@k.

Builds a path-backed :class:`repro.service.Workspace` with its
salient-feature index (``repro.indexing``) over synthetic collections of
growing size, which persists both, reopens the workspace with the index
served from memory-mapped shards, and answers the same k-NN workload
twice through its searcher — through the two-stage indexed pipeline
(codeword candidates -> exact cascade re-rank) and through the
exhaustive :class:`repro.engine.DistanceEngine` scan.

The collections are *variable-length* (each 50words-like series is
resampled to a random length within ±15% of the nominal one) because
that is the regime real DTW retrieval lives in — and the regime where
an index matters.  Over equal-length collections the engine's tight
Sakoe–Chiba envelopes already prune ~97% of an easy synthetic
collection and an exhaustive scan is hard to beat by more than ~2x
(``--equal-length`` lets you measure exactly that); with mixed lengths
only the weak global-envelope bound applies, the exhaustive scan pays a
full banded DP for most candidates, and candidate generation changes
the complexity class of a query.  For every collection size the
benchmark reports:

* build time (adding the series, extracting their features, fitting
  the codebook, building the postings and saving the workspace) and the
  on-disk size of the index directory (the feature store lives outside
  it, at the workspace root),
* mean per-query wall-clock of both paths and the speedup,
* recall@k of the indexed ranking against the exhaustive one,
* resident-set growth of serving the index via mmap vs. loading the
  shards fully into RAM (the mmap path should stay measurably below).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_indexed_search.py \
        --sizes 1000,5000,20000 --queries 10 --k 10 --candidates 100

The acceptance bar for the indexing PR: on the 5000-series collection
the indexed path must reach recall@10 >= 0.95 at >= 5x end-to-end
speedup over the exhaustive scan (checked whenever a size >= 5000 is
benchmarked; ``--min-recall`` / ``--min-speedup`` override the bar).
``--dry-run`` shrinks everything for CI smoke coverage and additionally
asserts the degenerate C = N equivalence.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from typing import List, Optional

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.datasets.base import Dataset, TimeSeries
from repro.datasets.synthetic import make_fiftywords_like
from repro.service import EngineConfig, IndexConfig, Workspace, WorkspaceConfig
from repro.utils.preprocessing import resample_linear
from repro.utils.rng import rng_from_seed
from repro.utils.tables import format_table


def build_collection(size: int, length: int, seed: int,
                     length_spread: float) -> Dataset:
    """A 50words-like collection, resampled to mixed lengths.

    ``length_spread=0`` keeps every series at the nominal length (the
    equal-length regime where the engine's tight envelopes apply).
    """
    dataset = make_fiftywords_like(num_series=size, length=length, seed=seed)
    if length_spread <= 0.0:
        return dataset
    rng = rng_from_seed(seed + 1)
    series = []
    for index, ts in enumerate(dataset):
        target = int(round(length * rng.uniform(1.0 - length_spread,
                                                1.0 + length_spread)))
        series.append(TimeSeries(
            values=resample_linear(ts.values, max(16, target)),
            label=ts.label,
            identifier=ts.identifier or f"series-{index:05d}",
        ))
    return Dataset(name=f"{dataset.name}-varlen", series=series,
                   metadata=dict(dataset.metadata, length_spread=length_spread))


def directory_size_bytes(path: str) -> int:
    total = 0
    for name in os.listdir(path):
        total += os.path.getsize(os.path.join(path, name))
    return total


_RSS_PROBE = r"""
import sys
import numpy as np
from repro.indexing import IndexReader

directory, use_mmap = sys.argv[1], sys.argv[2] == "1"
reader = IndexReader.open(directory, mmap=use_mmap)
index = reader.index
# One small scoring pass: under mmap only the touched postings pages
# fault in, while the preloaded reader has already materialised every
# shard array.
probe_size = min(16, index.num_codewords)
bag = (np.arange(probe_size, dtype=np.int32), np.ones(probe_size))
index.scores(bag)
with open("/proc/self/statm", "r", encoding="ascii") as handle:
    pages = int(handle.read().split()[1])
import os
print(pages * os.sysconf("SC_PAGESIZE"))
"""


def measure_open_rss(directory: str, mmap: bool) -> Optional[int]:
    """Peak-free RSS of a fresh process serving the index.

    Spawning a subprocess per measurement removes allocator-reuse order
    effects: both children pay the identical interpreter + numpy
    baseline, so the difference between them is the resident index
    payload (memory-mapped shards vs. fully loaded arrays).
    """
    import subprocess

    try:
        completed = subprocess.run(
            [sys.executable, "-c", _RSS_PROBE, directory, "1" if mmap else "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return int(completed.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, OSError, ValueError, IndexError):
        return None


def _resolve_auto(value, size: int, floor: int, divisor: int) -> int:
    """``'auto'`` parameters scale with the collection size."""
    if isinstance(value, str) and value.strip().lower() == "auto":
        return max(floor, size // divisor)
    return int(value)


def run_benchmark(args: argparse.Namespace) -> int:
    config = SDTWConfig(
        descriptor=DescriptorConfig(num_bins=args.descriptor_bins)
    )
    rows: List[List[object]] = []
    failures: List[str] = []

    for size in args.sizes:
        # A ~2% candidate budget and ~N/20 codewords keep recall high as
        # same-class neighbourhoods densify with collection size.
        candidates = _resolve_auto(args.candidates, size, 100, 50)
        codewords = _resolve_auto(args.codewords, size, 256, 20)
        dataset = build_collection(
            size, args.length, args.seed,
            0.0 if args.equal_length else args.length_spread,
        )
        workspace_config = WorkspaceConfig(
            sdtw=config,
            engine=EngineConfig(constraint=args.constraint, backend="vectorized"),
            # The read caches stay off: with them the warm-up query below
            # would come back as a candidate-cache hit in the timed loop.
            index=IndexConfig(
                num_codewords=codewords, num_shards=args.shards,
                candidate_budget=candidates, seed=args.seed,
                postings_cache=0, candidate_cache=0,
            ),
        )
        workdir = tempfile.mkdtemp(prefix=f"repro-index-{size}-")
        try:
            path = os.path.join(workdir, "ws")
            started = time.perf_counter()
            with Workspace.create(path, workspace_config) as built:
                built.add_dataset(dataset)
                built.build_index()
            build_seconds = time.perf_counter() - started
            index_dir = os.path.join(path, "index")
            index_bytes = directory_size_bytes(index_dir)
            rss_mmap = measure_open_rss(index_dir, True)
            rss_preload = measure_open_rss(index_dir, False)

            with Workspace.open(path) as workspace:
                searcher = workspace.searcher
                num_queries = min(args.queries, size)
                exclude = workspace.identifiers[:num_queries]
                queries = [workspace.series_of(name) for name in exclude]
                # One warm-up query outside the timed region (page
                # faults, envelope caches).
                searcher.query(queries[0], args.k, exclude_identifier=exclude[0])

                report = searcher.recall_at_k(
                    queries, args.k,
                    candidates=candidates, exclude_identifiers=exclude,
                )
                if args.dry_run:
                    degenerate = searcher.recall_at_k(
                        queries[:2], args.k, candidates=size,
                        exclude_identifiers=exclude[:2],
                    )
                    if degenerate.mean_recall != 1.0:
                        failures.append(
                            f"size {size}: C=N recall was "
                            f"{degenerate.mean_recall:.3f}, expected exactly 1.0"
                        )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

        exhaustive_ms = 1000.0 * report.exhaustive_seconds / max(1, num_queries)
        indexed_ms = 1000.0 * report.indexed_seconds / max(1, num_queries)
        rss_note = (
            f"{(rss_mmap or 0) / 2**20:.1f} / {(rss_preload or 0) / 2**20:.1f}"
            if rss_mmap is not None and rss_preload is not None else "n/a"
        )
        rows.append([
            size,
            f"{candidates}/{codewords}",
            round(build_seconds, 2),
            f"{index_bytes / 2**20:.1f}",
            round(exhaustive_ms, 2),
            round(indexed_ms, 2),
            round(report.speedup, 1),
            round(report.mean_recall, 3),
            rss_note,
        ])

        if size >= args.gate_size:
            if report.mean_recall < args.min_recall:
                failures.append(
                    f"size {size}: recall@{args.k} {report.mean_recall:.3f} "
                    f"below the {args.min_recall:.2f} bar"
                )
            if report.speedup < args.min_speedup:
                failures.append(
                    f"size {size}: speedup {report.speedup:.1f}x below the "
                    f"{args.min_speedup:.1f}x bar"
                )
            if (
                rss_mmap is not None and rss_preload is not None
                and rss_mmap >= rss_preload
            ):
                failures.append(
                    f"size {size}: mmap RSS growth ({rss_mmap / 2**20:.1f} MiB) "
                    f"not below preload ({rss_preload / 2**20:.1f} MiB)"
                )

    print(format_table(
        ["series", "C/codewords", "build s", "index MiB", "exhaustive ms",
         "indexed ms", "speedup", f"recall@{args.k}", "RSS mmap/preload MiB"],
        rows,
        title=(
            f"Indexed vs exhaustive search (length {args.length}, "
            f"constraint {args.constraint})"
        ),
    ))
    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("\nAll acceptance checks passed.")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default="1000,5000,20000",
                        help="comma-separated collection sizes")
    parser.add_argument("--length", type=int, default=270,
                        help="nominal series length (default: 270)")
    parser.add_argument("--length-spread", type=float, default=0.15,
                        help="series lengths drawn within ±this fraction of "
                             "the nominal length (default: 0.15)")
    parser.add_argument("--equal-length", action="store_true",
                        help="keep every series at the nominal length (the "
                             "regime where tight envelopes make the "
                             "exhaustive cascade hard to beat)")
    parser.add_argument("--queries", type=int, default=10,
                        help="queries per size (default: 10)")
    parser.add_argument("--k", type=int, default=10, help="neighbours per query")
    parser.add_argument("--candidates", default="auto",
                        help="candidate budget C; 'auto' scales it as "
                             "max(100, N/50) — a ~2%% budget keeps recall "
                             "high as same-class neighbourhoods densify "
                             "(default: auto)")
    parser.add_argument("--codewords", default="auto",
                        help="codebook size; 'auto' scales it as "
                             "max(256, N/20) so quantization cells stay "
                             "discriminative on large collections "
                             "(default: auto)")
    parser.add_argument("--shards", type=int, default=8,
                        help="postings shards (default: 8)")
    parser.add_argument("--descriptor-bins", type=int, default=64,
                        help="descriptor length (default: 64)")
    parser.add_argument("--constraint", default="fc,fw",
                        help="re-ranking constraint (default: fc,fw)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-recall", type=float, default=0.95,
                        help="recall bar at gated sizes (default: 0.95)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="speedup bar at gated sizes (default: 5.0)")
    parser.add_argument("--gate-size", type=int, default=5000,
                        help="apply the bars to sizes >= this (default: 5000)")
    parser.add_argument("--dry-run", action="store_true",
                        help="tiny CI configuration + C=N equivalence check")
    args = parser.parse_args(argv)
    if args.dry_run:
        args.sizes = "120"
        args.length = 96
        args.queries = 3
        args.k = 5
        args.candidates = 16
        args.codewords = 32
        args.descriptor_bins = 16
        args.shards = 3
        args.gate_size = 10 ** 9
        args.min_speedup = 0.0
    args.sizes = [int(part) for part in str(args.sizes).split(",") if part]
    return args


if __name__ == "__main__":
    sys.exit(run_benchmark(parse_args()))
