"""Indexed retrieval: build, persist, reopen and query a salient-feature index.

Demonstrates the two-stage pipeline of :mod:`repro.indexing`, owned by a
:class:`repro.service.Workspace`:

1. fill a workspace from a synthetic collection and build its index
   (k-means codebook over salient-feature descriptors + TF-IDF inverted
   index; the distance-engine cascade re-ranks exactly);
2. the workspace persists the index as a directory of memory-mapped
   shards next to its feature store; reopen it;
3. answer k-NN queries with a small candidate budget, compare against
   the exhaustive ranking, and show the ``exact`` escape hatch.

Run with::

    PYTHONPATH=src python examples/indexed_search.py
"""

from __future__ import annotations

import os
import tempfile

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.datasets.synthetic import make_fiftywords_like
from repro.service import EngineConfig, IndexConfig, Workspace, WorkspaceConfig


def main() -> None:
    # A 50-class collection: every class contributes a handful of series.
    dataset = make_fiftywords_like(num_series=150, length=128, seed=11)
    config = WorkspaceConfig(
        sdtw=SDTWConfig(descriptor=DescriptorConfig(num_bins=16)),
        engine=EngineConfig(constraint="fc,fw"),
        index=IndexConfig(num_codewords=64, candidate_budget=40),
    )

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ws")
        print(f"Building index over {len(dataset)} series ...")
        with Workspace.create(path, config) as workspace:
            workspace.add_dataset(dataset)
            workspace.build_index()
            index = workspace.stats()["index"]
            print(f"codebook: {index['num_codewords']} codewords, "
                  f"postings: {index['num_postings']}")

        with Workspace.open(path) as reopened:
            searcher = reopened.searcher
            print(f"reopened from {path} "
                  f"(memory-mapped: {searcher.index.is_memory_mapped})\n")

            query = dataset[0].values
            indexed = reopened.query(query, k=5, mode="indexed",
                                     exclude_identifier=dataset[0].identifier)
            print(f"indexed query: scanned {indexed.candidates_generated} of "
                  f"{len(reopened)} series "
                  f"({indexed.elapsed_seconds * 1000:.1f} ms)")
            for hit in indexed.hits:
                print(f"  {hit.identifier:>18s}  distance={hit.distance:8.4f} "
                      f"label={hit.label}")

            exact = reopened.query(query, k=5, mode="exact",
                                   exclude_identifier=dataset[0].identifier)
            print(f"\nexact escape hatch: scanned every series "
                  f"({exact.elapsed_seconds * 1000:.1f} ms)")
            agreement = len(set(indexed.ids) & set(exact.ids))
            print(f"overlap with exhaustive top-5: {agreement}/5")

            report = searcher.recall_at_k(
                [dataset[i].values for i in range(8)], k=5,
                exclude_identifiers=[dataset[i].identifier for i in range(8)],
            )
            print(f"\nrecall@5 over 8 queries: {report.mean_recall:.3f} "
                  f"(C={report.candidate_budget}, "
                  f"speedup {report.speedup:.1f}x)")


if __name__ == "__main__":
    main()
