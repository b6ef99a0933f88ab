"""Tests for the two-stage indexed searcher (candidates + exact re-rank)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.datasets.synthetic import make_gun_like
from repro.exceptions import ValidationError
from repro.indexing import CodebookConfig, IndexedSearcher

CONFIG = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))
# The three constraint families the acceptance criterion names.
FAMILIES = ["fc,fw", "itakura", "ac,aw"]


@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=24, length=80, seed=21)


def _build(dataset, constraint, **kwargs):
    kwargs.setdefault("config", CONFIG)
    kwargs.setdefault(
        "codebook_config", CodebookConfig.for_sdtw(CONFIG, num_codewords=32, seed=2)
    )
    kwargs.setdefault("num_shards", 3)
    return IndexedSearcher.from_dataset(dataset, constraint=constraint, **kwargs)


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

    def test_batch_query_matches_single_queries(self, dataset):
        searcher = _build(dataset, "fc,fw")
        queries = [dataset[i].values for i in range(3)]
        batch = searcher.batch_query(queries, k=4, candidates=8)
        for qi, values in enumerate(queries):
            single = searcher.query(values, k=4, candidates=8)
            assert batch[qi].indices == single.indices


class TestPersistenceRoundTrip:
    def test_reopened_searcher_answers_identically(self, dataset, tmp_path):
        searcher = _build(dataset, "fc,fw")
        searcher.save(tmp_path / "idx")
        reopened = IndexedSearcher.open(
            tmp_path / "idx", config=CONFIG, constraint="fc,fw",
        )
        assert reopened.index.is_memory_mapped
        for qi in (0, 7, 11):
            query = dataset[qi].values
            original = searcher.query(query, k=5, candidates=10)
            restored = reopened.query(query, k=5, candidates=10)
            assert original.indices == restored.indices
            for mine, theirs in zip(original.hits, restored.hits):
                assert mine.distance == theirs.distance

    def test_reopened_full_budget_still_matches_engine(self, dataset, tmp_path):
        searcher = _build(dataset, "itakura")
        searcher.save(tmp_path / "idx")
        reopened = IndexedSearcher.open(
            tmp_path / "idx", config=CONFIG, constraint="itakura",
        )
        query = dataset[9].values
        indexed = reopened.query(query, k=6, candidates=len(dataset))
        exact = reopened.engine.query(query, 6)
        assert indexed.indices == exact.indices


class TestEngineIndexedPath:
    """``IndexedSearcher.from_engine`` over a Workspace's serving engine
    (the path the retired search-engine shim used to wrap)."""

    def test_from_engine_reuses_the_engine(self, dataset):
        from repro.service import (
            EngineConfig, Workspace, WorkspaceConfig,
        )

        workspace = Workspace(WorkspaceConfig(
            sdtw=CONFIG, engine=EngineConfig(constraint="fc,fw")))
        workspace.add_dataset(dataset)
        searcher = IndexedSearcher.from_engine(
            workspace.engine,
            config=CONFIG,
            codebook_config=CodebookConfig.for_sdtw(CONFIG, num_codewords=32),
            candidate_budget=8,
        )
        assert searcher.engine is workspace.engine
        result = searcher.query(dataset[0].values, k=3,
                                candidates=len(dataset))
        exhaustive = workspace.query(dataset[0].values, 3, mode="exact")
        assert [hit.index for hit in exhaustive.hits] == list(result.indices)

    def test_empty_engine_rejected(self):
        from repro.engine import DistanceEngine

        with pytest.raises(ValidationError):
            IndexedSearcher.from_engine(
                DistanceEngine("fc,fw", config=CONFIG), config=CONFIG)


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
        from repro.engine import DistanceEngine

        small = DistanceEngine("fc,fw", CONFIG)
        small.add(dataset[0].values)
        with pytest.raises(ValidationError):
            IndexedSearcher(searcher.index, searcher.codebook, small, config=CONFIG)


class TestDuplicateIdentifiers:
    def test_from_engine_rejects_duplicate_identifiers(self, dataset):
        from repro.engine import DistanceEngine

        engine = DistanceEngine("fc,fw", CONFIG)
        engine.add(dataset[0].values, identifier="dup")
        engine.add(dataset[1].values, identifier="dup")
        with pytest.raises(ValidationError):
            IndexedSearcher.from_engine(engine, config=CONFIG)

    def test_build_rejects_duplicate_identifiers(self, dataset):
        with pytest.raises(ValidationError):
            IndexedSearcher.build(
                [dataset[0].values, dataset[1].values],
                identifiers=["dup", "dup"],
                config=CONFIG,
            )

    def test_writer_rejects_duplicate_identifiers(self, dataset, tmp_path):
        from repro.indexing import IndexWriter

        searcher = _build(dataset, "fc,fw")
        duplicated = ["same"] * len(dataset)
        with pytest.raises(ValidationError):
            IndexWriter(tmp_path / "idx").write(
                searcher.index, searcher.codebook, duplicated,
            )


class TestPersistedExtractionConfig:
    def test_reopen_reconstructs_build_config(self, dataset, tmp_path):
        searcher = _build(dataset, "fc,fw")
        searcher.save(tmp_path / "idx")
        # No config passed: the persisted (16-bin) configuration is used.
        reopened = IndexedSearcher.open(tmp_path / "idx", constraint="fc,fw")
        assert reopened.config == CONFIG
        query = dataset[3].values
        assert (
            reopened.query(query, k=4, candidates=10).indices
            == searcher.query(query, k=4, candidates=10).indices
        )

    def test_mismatched_config_rejected_on_reopen(self, dataset, tmp_path):
        searcher = _build(dataset, "fc,fw")
        searcher.save(tmp_path / "idx")
        wrong = SDTWConfig(descriptor=DescriptorConfig(num_bins=16),
                           width_fraction=0.25)
        with pytest.raises(ValidationError):
            IndexedSearcher.open(tmp_path / "idx", config=wrong)

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
