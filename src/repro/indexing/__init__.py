"""Persistent salient-feature index for sublinear candidate generation.

Every retrieval path elsewhere in the repository compares a query
against *every* stored series; the PR 1 cascade prunes dynamic-program
work per pair, but the scan itself is O(N).  This package removes that
O(N): series whose quantized salient-feature sets share no codewords
cannot align cheaply, so a feature-level inverted index generates a
small candidate set *before* the exact cascade runs.

Pipeline::

    FeatureStore / extract_salient_features
        -> Codebook (k-means quantizer, trained once per collection)
        -> InvertedIndex (codeword -> postings, TF-IDF scored)
        -> IndexWriter / IndexReader (mmapped .npz shards + manifest)
        -> IndexedSearcher (top-C candidates -> DistanceEngine re-rank)

:class:`repro.service.Workspace` is the one owner of an index: its
``build_index`` fits a :class:`Codebook` on the features of its
:class:`~repro.retrieval.feature_store.FeatureStore` and builds the
:class:`InvertedIndex` from their bags, its adds, removals and
``compact_index`` update copies of the index, and it writes the index
to its ``index/`` directory with :class:`IndexWriter` and reopens it
with :class:`IndexReader`.  Its serving snapshots wrap the index in an
:class:`IndexedSearcher`.  That directory holds no feature store; the
workspace keeps one, at its root.

Naming note: this package is the canonical home of the library's
*search* index — its classes are re-exported from the top-level
``repro`` package (``from repro import IndexedSearcher`` works) but
never through ``repro.retrieval``.  It is unrelated to
:class:`repro.retrieval.index.PairwiseDistanceMatrix` (historically
``DistanceIndex``; that alias has been removed): that class is a pairwise
distance *matrix* with cost accounting (an "index" in the
experiment-bookkeeping sense), while this package is a disk-backed
search index that trades a configurable candidate budget for sublinear
query cost; it serves the Workspace's ``indexed`` query mode.
"""

from .codebook import Codebook, CodebookConfig, feature_embedding
from .postings import InvertedIndex, inverse_document_frequencies
from .searcher import IndexedSearchResult, IndexedSearcher, RecallReport
from .shards import IndexShard, load_npz, mmap_npz
from .store import IndexReader, IndexWriter

__all__ = [
    "Codebook",
    "CodebookConfig",
    "IndexReader",
    "IndexShard",
    "IndexWriter",
    "IndexedSearchResult",
    "IndexedSearcher",
    "InvertedIndex",
    "RecallReport",
    "feature_embedding",
    "inverse_document_frequencies",
    "load_npz",
    "mmap_npz",
]
