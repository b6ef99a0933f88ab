"""Tests for the two-stage indexed searcher (candidates + exact re-rank)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.core.features import extract_salient_features
from repro.datasets.synthetic import make_gun_like
from repro.engine import DistanceEngine
from repro.exceptions import ValidationError
from repro.indexing import (
    Codebook,
    CodebookConfig,
    IndexedSearcher,
    InvertedIndex,
)

CONFIG = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))
# The three constraint families the acceptance criterion names.
FAMILIES = ["fc,fw", "itakura", "ac,aw"]


@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=24, length=80, seed=21)


def _build(dataset, constraint, *, candidate_budget=100):
    """A searcher over *dataset*, its index built from the layers."""
    engine = DistanceEngine(constraint, CONFIG)
    engine.add_dataset(dataset)
    features = [extract_salient_features(ts.values, CONFIG) for ts in dataset]
    lengths = [ts.values.size for ts in dataset]
    codebook = Codebook(
        CodebookConfig.for_sdtw(CONFIG, num_codewords=32, seed=2)
    ).fit(features, lengths)
    index = InvertedIndex.from_bags(
        [codebook.bag(f, n) for f, n in zip(features, lengths)],
        codebook.num_codewords,
        num_shards=3,
    )
    return IndexedSearcher(
        index, codebook, engine, config=CONFIG, candidate_budget=candidate_budget
    )


class TestFullBudgetEquivalence:
    @pytest.mark.parametrize("constraint", FAMILIES)
    def test_c_equals_n_reproduces_engine_rankings(self, dataset, constraint):
        searcher = _build(dataset, constraint)
        for qi in (0, 5, 13):
            query = dataset[qi].values
            indexed = searcher.query(query, k=5, candidates=len(dataset))
            exact = searcher.engine.query(query, 5)
            assert indexed.indices == exact.indices
            for mine, theirs in zip(indexed.hits, exact.hits):
                assert mine.distance == theirs.distance
                assert mine.identifier == theirs.identifier

    @pytest.mark.parametrize("constraint", FAMILIES)
    def test_recall_is_one_at_full_budget(self, dataset, constraint):
        searcher = _build(dataset, constraint)
        queries = [dataset[i].values for i in range(4)]
        report = searcher.recall_at_k(queries, k=10, candidates=len(dataset))
        assert report.mean_recall == 1.0

    def test_budget_beyond_collection_size_equivalent_too(self, dataset):
        searcher = _build(dataset, "fc,fw")
        query = dataset[2].values
        indexed = searcher.query(query, k=5, candidates=10 * len(dataset))
        exact = searcher.engine.query(query, 5)
        assert indexed.indices == exact.indices


class TestEscapeHatch:
    def test_exact_bypasses_candidate_generation(self, dataset):
        searcher = _build(dataset, "fc,fw")
        result = searcher.query(dataset[1].values, k=5, exact=True)
        assert result.exact
        assert result.generation_seconds == 0.0
        assert result.candidates_generated == len(dataset)
        exhaustive = searcher.engine.query(dataset[1].values, 5)
        assert result.indices == exhaustive.indices


class TestBudgetedQueries:
    def test_small_budget_restricts_the_scan(self, dataset):
        searcher = _build(dataset, "fc,fw", candidate_budget=6)
        result = searcher.query(dataset[0].values, k=3)
        assert result.candidates_generated == 6
        assert result.stats.candidates <= 6
        assert len(result.hits) == 3

    def test_self_query_finds_itself_in_candidates(self, dataset):
        searcher = _build(dataset, "fc,fw")
        for qi in range(6):
            result = searcher.query(dataset[qi].values, k=1, candidates=5)
            assert result.hits[0].index == qi
            assert result.hits[0].distance == 0.0

    def test_exclude_identifier_respected(self, dataset):
        searcher = _build(dataset, "fc,fw")
        identifier = searcher.engine._stored[0].identifier
        result = searcher.query(
            dataset[0].values, k=3, candidates=len(dataset),
            exclude_identifier=identifier,
        )
        assert 0 not in result.indices

    def test_generate_candidates_is_deterministic(self, dataset):
        searcher = _build(dataset, "fc,fw")
        first = searcher.generate_candidates(dataset[4].values, 8)
        second = searcher.generate_candidates(dataset[4].values, 8)
        assert np.array_equal(first, second)


class TestValidation:
    def test_mismatched_descriptor_bins_rejected(self, dataset):
        searcher = _build(dataset, "fc,fw")
        with pytest.raises(ValidationError):
            IndexedSearcher(
                searcher.index, searcher.codebook, searcher.engine,
                config=SDTWConfig(),  # 64-bin default vs 16-bin codebook
            )

    def test_engine_size_mismatch_rejected(self, dataset):
        searcher = _build(dataset, "fc,fw")
        small = DistanceEngine("fc,fw", CONFIG)
        small.add(dataset[0].values)
        with pytest.raises(ValidationError):
            IndexedSearcher(searcher.index, searcher.codebook, small, config=CONFIG)


class TestDuplicateIdentifiers:
    def test_writer_rejects_duplicate_identifiers(self, dataset, tmp_path):
        from repro.indexing import IndexWriter

        searcher = _build(dataset, "fc,fw")
        duplicated = ["same"] * len(dataset)
        with pytest.raises(ValidationError):
            IndexWriter(tmp_path / "idx").write(
                searcher.index, searcher.codebook, duplicated,
            )


class TestPersistedExtractionConfig:
    def test_config_dict_round_trip(self):
        restored = SDTWConfig.from_dict(CONFIG.to_dict())
        assert restored == CONFIG


class TestQueryExtraction:
    """Candidate generation and the re-rank share one extraction."""

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_indexed_query_extracts_once_per_shard(
        self, dataset, monkeypatch, num_shards
    ):
        import repro.core.sdtw as sdtw_module
        import repro.indexing.searcher as searcher_module
        from repro.server import split_workspace
        from repro.service import EngineConfig, Workspace, WorkspaceConfig

        workspace = Workspace(WorkspaceConfig(
            sdtw=CONFIG, engine=EngineConfig(constraint="ac,aw")))
        workspace.add_dataset(dataset)
        workspace.build_index()
        sharded = split_workspace(workspace, num_shards)
        sharded.query(dataset[0].values + 0.01, 3, mode="indexed")
        calls = []
        for module in (sdtw_module, searcher_module):
            original = module.extract_salient_features
            monkeypatch.setattr(
                module, "extract_salient_features",
                lambda *args, _original=original: calls.append(1) or _original(*args),
            )
        sharded.query(dataset[5].values + 0.02, 3, mode="indexed", candidates=6)
        assert len(calls) == num_shards
