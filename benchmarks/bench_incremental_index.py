"""Incremental index maintenance vs. full rebuilds.

The PR 5 acceptance benchmark.  Over a 50words-like collection it
measures two things:

1. **Incremental speed** — after ``build_index()`` over N series, adding
   A more series one by one through ``Workspace.add``.  With incremental
   maintenance each add extracts the new series' features, quantizes
   them against the frozen codebook and appends one delta shard
   (O(new features)); the baseline configuration
   (``IndexConfig(incremental=False)``) marks the index stale and pays a
   full ``build_index()`` — codebook refit, re-quantization of all
   N + A series, postings rebuild — to serve indexed queries again.
   The gate: incremental must be at least ``--min-speedup`` (default 5x)
   faster than the rebuild path.

2. **Equivalence** — after the adds, ``compact_index()`` must leave the
   postings bit-identical to ``InvertedIndex.from_bags`` over the
   current collection under the same frozen codebook (a from-scratch
   postings rebuild), and indexed queries at C = N must reproduce the
   exhaustive engine ranking exactly, before and after compaction.

It also reports, without a gate, the TF-IDF recall@k at the candidate
budget ``--candidates``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_incremental_index.py \
        --base-size 2000 --add 100 --queries 10

``--quick`` shrinks everything for CI; ``--json PATH`` merges the
metrics into PATH under the ``"incremental_index"`` key, keeping the
other sections of the CI perf-guard artifact ``BENCH_ci.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.datasets.synthetic import make_fiftywords_like
from repro.indexing import InvertedIndex
from repro.indexing.shards import OPTIONAL_SHARD_MEMBERS, SHARD_MEMBERS
from repro.service import IndexConfig, Workspace, WorkspaceConfig
from repro.utils.tables import format_table

from _bench_utils import merge_json_section

ALL_SHARD_MEMBERS = SHARD_MEMBERS + OPTIONAL_SHARD_MEMBERS


def make_config(args: argparse.Namespace, incremental: bool) -> WorkspaceConfig:
    return WorkspaceConfig(
        sdtw=SDTWConfig(
            descriptor=DescriptorConfig(num_bins=args.descriptor_bins)
        ),
        index=IndexConfig(
            num_codewords=args.codewords,
            num_shards=args.shards,
            candidate_budget=args.candidates,
            seed=args.seed,
            incremental=incremental,
            max_delta_shards=max(args.add + 1, 2),
        ),
        default_k=args.k,
    )


def fill(workspace: Workspace, dataset, start: int, stop: int) -> None:
    for position in range(start, stop):
        ts = dataset[position]
        workspace.add(
            ts.values,
            identifier=ts.identifier or f"series-{position:05d}",
            label=ts.label,
        )


def shards_bit_identical(left: InvertedIndex, right: InvertedIndex) -> bool:
    if (
        left.num_series != right.num_series
        or len(left.shards) != len(right.shards)
        or left.delta_shards or right.delta_shards
        or not np.array_equal(left.idf, right.idf)
    ):
        return False
    for ours, theirs in zip(left.shards, right.shards):
        for member in ALL_SHARD_MEMBERS:
            mine, other = getattr(ours, member), getattr(theirs, member)
            if (mine is None) != (other is None):
                return False
            if mine is not None and not np.array_equal(
                np.asarray(mine), np.asarray(other)
            ):
                return False
    return True


def recall_against_exact(
    workspace: Workspace,
    queries,
    exclude: List[str],
    k: int,
    candidates: Optional[int] = None,
) -> float:
    recalls = []
    for probe, identifier in zip(queries, exclude):
        exact = workspace.query(probe, k, mode="exact",
                                exclude_identifier=identifier)
        indexed = workspace.query(probe, k, mode="indexed",
                                  candidates=candidates,
                                  exclude_identifier=identifier)
        want = set(exact.ids)
        recalls.append(len(want & set(indexed.ids)) / len(want) if want else 1.0)
    return float(np.mean(recalls)) if recalls else 1.0


def run_benchmark(args: argparse.Namespace) -> int:
    total = args.base_size + args.add
    dataset = make_fiftywords_like(
        num_series=total, length=args.length, seed=args.seed
    )
    failures: List[str] = []
    metrics: Dict[str, object] = {
        "base_size": args.base_size,
        "added": args.add,
        "length": args.length,
        "codewords": args.codewords,
        "candidate_budget": args.candidates,
        "k": args.k,
    }

    # ---------------------------------------------------------------- #
    # 1. Incremental adds vs. stale-and-rebuild
    # ---------------------------------------------------------------- #
    incremental_ws = Workspace(make_config(args, incremental=True))
    fill(incremental_ws, dataset, 0, args.base_size)
    incremental_ws.build_index()
    started = time.perf_counter()
    fill(incremental_ws, dataset, args.base_size, total)
    assert incremental_ws.has_index, "incremental add must keep the index fresh"
    incremental_seconds = time.perf_counter() - started
    delta_shards = incremental_ws.stats()["index"]["delta_shards"]

    rebuild_ws = Workspace(make_config(args, incremental=False))
    fill(rebuild_ws, dataset, 0, args.base_size)
    rebuild_ws.build_index()
    started = time.perf_counter()
    fill(rebuild_ws, dataset, args.base_size, total)
    assert not rebuild_ws.has_index, "non-incremental add must go stale"
    rebuild_ws.build_index()
    rebuild_seconds = time.perf_counter() - started

    speedup = (
        rebuild_seconds / incremental_seconds if incremental_seconds > 0
        else float("inf")
    )
    metrics["incremental_seconds"] = round(incremental_seconds, 4)
    metrics["rebuild_seconds"] = round(rebuild_seconds, 4)
    metrics["incremental_speedup"] = round(speedup, 2)
    metrics["delta_shards_after_adds"] = int(delta_shards)
    if speedup < args.min_speedup:
        failures.append(
            f"incremental adds only {speedup:.1f}x faster than a full "
            f"rebuild (bar: {args.min_speedup:.1f}x)"
        )

    # ---------------------------------------------------------------- #
    # 2. Equivalence: C = N vs. exact, compaction vs. fresh postings
    # ---------------------------------------------------------------- #
    num_queries = min(args.queries, total)
    probes = [dataset[i].values for i in range(num_queries)]
    exclude = [incremental_ws.identifiers[i] for i in range(num_queries)]

    full_budget = recall_against_exact(
        incremental_ws, probes[:3], exclude[:3], args.k, candidates=total,
    )
    if full_budget != 1.0:
        failures.append(
            f"C=N recall over the delta-sharded index was {full_budget:.3f}, "
            f"expected exactly 1.0"
        )

    searcher = incremental_ws.searcher
    stored = searcher.engine.stored_items()
    store_features = [
        list(incremental_ws._store.features_of(identifier))
        for identifier, _, _ in stored
    ]
    lengths = [values.size for _, values, _ in stored]
    bags = [
        searcher.codebook.bag(feats, length)
        for feats, length in zip(store_features, lengths)
    ]
    fresh = InvertedIndex.from_bags(
        bags, searcher.codebook.num_codewords, num_shards=args.shards
    )
    incremental_ws.compact_index()
    compacted = incremental_ws.searcher.index
    identical = shards_bit_identical(compacted, fresh)
    metrics["compact_bit_identical"] = bool(identical)
    if not identical:
        failures.append(
            "compact() output differs from a from-scratch postings rebuild "
            "under the frozen codebook"
        )
    post_compact = recall_against_exact(
        incremental_ws, probes[:3], exclude[:3], args.k, candidates=total,
    )
    if post_compact != 1.0:
        failures.append(
            f"C=N recall after compaction was {post_compact:.3f}, "
            f"expected exactly 1.0"
        )

    # Reported only: TF-IDF recall at the configured candidate budget.
    started = time.perf_counter()
    tfidf_recall = recall_against_exact(
        incremental_ws, probes, exclude, args.k
    )
    tfidf_seconds = time.perf_counter() - started
    metrics["tfidf_recall"] = round(tfidf_recall, 4)

    print(format_table(
        ["metric", "value"],
        [
            ["collection (base + added)", f"{args.base_size} + {args.add}"],
            ["incremental add total", f"{incremental_seconds:.3f} s"],
            ["stale + full rebuild", f"{rebuild_seconds:.3f} s"],
            ["incremental speedup", f"{speedup:.1f}x"],
            ["delta shards after adds", delta_shards],
            ["compact == fresh rebuild", "yes" if identical else "NO"],
            [f"recall@{args.k} tfidf (C={args.candidates})",
             f"{tfidf_recall:.3f} ({tfidf_seconds:.2f} s)"],
        ],
        title="Incremental index maintenance",
    ))

    if args.json:
        metrics["failures"] = failures
        merge_json_section(args.json, "incremental_index", metrics)
        print(f"\nmetrics merged into {args.json} under 'incremental_index'")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("\nAll acceptance checks passed.")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base-size", type=int, default=2000,
                        help="series indexed before the incremental adds "
                             "(default: 2000)")
    parser.add_argument("--add", type=int, default=100,
                        help="series added after build_index (default: 100)")
    parser.add_argument("--length", type=int, default=180,
                        help="series length (default: 180)")
    parser.add_argument("--codewords", type=int, default=256,
                        help="codebook size (default: 256)")
    parser.add_argument("--shards", type=int, default=4,
                        help="base postings shards (default: 4)")
    parser.add_argument("--candidates", type=int, default=64,
                        help="candidate budget of the reported recall "
                             "(default: 64)")
    parser.add_argument("--queries", type=int, default=10,
                        help="stored series replayed as queries (default: 10)")
    parser.add_argument("--k", type=int, default=10, help="neighbours per query")
    parser.add_argument("--descriptor-bins", type=int, default=32,
                        help="descriptor length (default: 32)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="incremental-vs-rebuild bar (default: 5.0)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="merge the metrics into PATH under "
                             "'incremental_index' (CI artifact)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny CI configuration (same gates)")
    args = parser.parse_args(argv)
    if args.quick:
        args.base_size = 220
        args.add = 20
        args.length = 96
        args.codewords = 48
        args.shards = 2
        args.candidates = 24
        args.queries = 5
        args.k = 5
        args.descriptor_bins = 16
    return args


if __name__ == "__main__":
    sys.exit(run_benchmark(parse_args()))
