"""Unit tests for the batch distance engine: stats accounting, backend
resolution, pruning switches, and the rewired retrieval entry points."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core.config import SDTWConfig
from repro.core.sdtw import SDTW
from repro.datasets.synthetic import make_gun_like
from repro.engine import (
    DistanceEngine,
    EngineStats,
    banded_dtw_batch,
    normalize_constraint,
    resolve_backend,
)
from repro.dtw.banded import banded_dtw
from repro.dtw.constraints import sakoe_chiba_band, sakoe_chiba_envelope_radius
from repro.dtw.lower_bounds import lb_keogh, lb_kim
from repro.engine import engine as engine_module
from repro.exceptions import DatasetError, ValidationError
from repro.retrieval.knn import batch_top_k


@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=10, seed=33)


@pytest.fixture(scope="module")
def engine(dataset):
    built = DistanceEngine("fc,fw", backend="serial")
    built.add_dataset(dataset)
    return built


class TestBackendResolution:
    def test_aliases(self):
        assert resolve_backend(None) == "serial"
        assert resolve_backend("mp") == "multiprocessing"
        assert resolve_backend("Vectorised") == "vectorized"
        assert resolve_backend("numpy") == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            resolve_backend("gpu")

    def test_unknown_constraint_rejected(self):
        with pytest.raises(ValidationError):
            DistanceEngine("no-such-constraint")

    def test_constraint_normalisation(self):
        assert normalize_constraint("Full") == "full"
        assert normalize_constraint("sakoe-chiba") == "fc,fw"
        assert normalize_constraint("ITAKURA") == "itakura"
        assert normalize_constraint("ac2,aw") == "ac2,aw"


class TestStatsAccounting:
    def test_cascade_counters_partition_the_candidates(self, engine, dataset):
        result = engine.query(dataset[0].values, 3,
                              exclude_identifier=dataset[0].identifier)
        stats = result.stats
        assert stats.candidates == len(dataset) - 1
        assert stats.pruned + stats.refined == stats.candidates
        assert stats.dtw_computed >= 3
        assert stats.cells_filled > 0
        assert stats.total_cells >= stats.cells_filled
        assert 0.0 <= stats.prune_rate <= 1.0
        assert 0.0 <= stats.cell_gain <= 1.0

    def test_merge_sums_counters(self):
        a = EngineStats(queries=1, candidates=5, dtw_computed=3,
                        cells_filled=10, dp_seconds=0.5)
        b = EngineStats(queries=1, candidates=7, dtw_computed=4,
                        cells_filled=20, dp_seconds=0.25)
        merged = EngineStats.merged([a, b])
        assert merged.queries == 2
        assert merged.candidates == 12
        assert merged.dtw_computed == 7
        assert merged.cells_filled == 30
        assert merged.dp_seconds == pytest.approx(0.75)

    def test_time_gain_against_reference(self):
        stats = EngineStats(elapsed_seconds=1.0)
        assert stats.time_gain(4.0) == pytest.approx(0.75)
        assert stats.time_gain(0.0) == 0.0

    def test_cascade_rows_render(self, engine, dataset):
        result = engine.query(dataset[1].values, 2)
        rows = result.stats.cascade_rows()
        assert any("LB_Kim" in str(row[0]) for row in rows)
        assert any("cells" in str(row[0]) for row in rows)


class TestPruningSwitches:
    def test_prune_false_scans_everything(self, dataset):
        engine = DistanceEngine("fc,fw", prune=False, early_abandon=False)
        engine.add_dataset(dataset)
        result = engine.query(dataset[0].values, 2,
                              exclude_identifier=dataset[0].identifier)
        stats = result.stats
        assert stats.pruned == 0
        assert stats.dtw_computed == stats.candidates
        assert stats.lb_kim_computed == 0
        assert stats.lb_keogh_computed == 0

    def test_bounds_disabled_for_non_absolute_distances(self, dataset):
        engine = DistanceEngine(
            "fc,fw", SDTWConfig(pointwise_distance="squared")
        )
        engine.add_dataset(dataset)
        result = engine.query(dataset[0].values, 2)
        # LB_Kim / LB_Keogh are derived for the absolute distance only, so
        # they must be skipped; abandonment remains valid.
        assert result.stats.lb_kim_computed == 0
        assert result.stats.lb_keogh_computed == 0
        assert result.stats.pruned == 0

    def test_invalid_itakura_slope_rejected(self):
        with pytest.raises(ValidationError):
            DistanceEngine("itakura", itakura_max_slope=1.0)


class TestBoundStage:
    """Both bounds run for every candidate; refinement follows their maximum."""

    def test_serial_refines_in_ascending_full_bound_order(self):
        collection = make_gun_like(num_series=32, seed=11)
        engine = DistanceEngine("fc,fw", backend="serial")
        engine.add_dataset(collection)
        clean = np.asarray(collection[0].values)
        query = clean + np.random.default_rng(3).normal(0.0, 0.2, clean.size)
        stored = [values for _, values, _ in engine.stored_items()]
        radius = sakoe_chiba_envelope_radius(clean.size, engine.config.width_fraction)
        bound = [
            max(lb_kim(query, values), lb_keogh(query, values, radius))
            for values in stored
        ]
        expected = sorted(range(len(stored)), key=lambda i: (bound[i], i))
        with mock.patch.object(
            engine_module, "banded_dtw", wraps=engine_module.banded_dtw
        ) as kernel:
            result = engine.query(query, k=3)
        slot_of = {id(values): i for i, values in enumerate(stored)}
        refined = [slot_of[id(call.args[1])] for call in kernel.call_args_list]
        assert 3 <= len(refined) < len(stored)
        assert refined == expected[:len(refined)]
        stats = result.stats
        assert stats.lb_kim_computed == stats.lb_keogh_computed == stats.candidates
        assert stats.refined == len(refined)
        assert stats.pruned == stats.candidates - len(refined)


class TestEngineBasics:
    def test_empty_engine_raises(self):
        with pytest.raises(DatasetError):
            DistanceEngine("full").knn([[1.0, 2.0]], 1)

    def test_mismatched_exclude_list_rejected(self, engine, dataset):
        with pytest.raises(ValidationError):
            engine.knn([dataset[0].values, dataset[1].values], 1,
                       exclude_identifiers=["only-one"])

    def test_k_larger_than_collection_returns_everything(self, dataset):
        engine = DistanceEngine("fc,fw")
        engine.add_dataset(dataset)
        result = engine.query(dataset[0].values, 50)
        assert len(result.hits) == len(dataset)

    def test_from_dataset_builds_collection(self, dataset):
        engine = DistanceEngine.from_dataset(dataset, "fc,fw")
        assert len(engine) == len(dataset)

    def test_add_dataset_returns_identifiers(self, dataset):
        engine = DistanceEngine("fc,fw")
        identifiers = engine.add_dataset(dataset)
        assert len(identifiers) == len(dataset)
        result = engine.query(dataset[0].values, 1,
                              exclude_identifier=identifiers[0])
        assert result.hits[0].identifier != identifiers[0]

    def test_auto_identifiers_never_collide_with_explicit_ones(self):
        # Regression: an auto-generated "series-NNNNN" name must not alias
        # a user-supplied identifier, or exclusion would silently drop an
        # unrelated series.
        engine = DistanceEngine("full")
        engine.add([1.0, 2.0], identifier="series-00001")
        auto = engine.add([3.0, 4.0])
        assert auto != "series-00001"
        result = engine.query([1.0, 2.0], 1,
                              exclude_identifier="series-00001")
        assert [hit.identifier for hit in result.hits] == [auto]

    def test_exclusion_skips_every_duplicate_identifier(self):
        # Regression: like the sequential engine, leave-one-out exclusion
        # must skip *all* stored copies sharing the identifier, not only
        # the most recently added one.
        series = np.sin(np.linspace(0.0, 5.0, 30))
        other = np.cos(np.linspace(0.0, 5.0, 30))
        engine = DistanceEngine("full")
        engine.add(series, identifier="dup")
        engine.add(other, identifier="other")
        engine.add(series, identifier="dup")
        result = engine.query(series, 2, exclude_identifier="dup")
        assert [hit.identifier for hit in result.hits] == ["other"]

    def test_prepare_is_idempotent_and_invalidated_by_add(self, dataset):
        engine = DistanceEngine("fc,fw")
        engine.add_dataset(dataset)
        engine.prepare()
        first = engine._prepared
        engine.prepare()
        assert engine._prepared is first
        engine.add(dataset[0].values, identifier="extra")
        assert engine._prepared is None

    def test_distance_matrix_matches_sdtw(self, dataset):
        engine = DistanceEngine("fc,fw", backend="vectorized")
        engine.add_dataset(dataset)
        queries = [dataset[0].values, dataset[1].values]
        matrix = engine.distance_matrix(queries).distances
        sdtw = SDTW()
        for qi, query in enumerate(queries):
            for ci, ts in enumerate(dataset):
                want = sdtw.distance(query, ts.values, "fc,fw").distance
                assert matrix[qi, ci] == pytest.approx(want, abs=1e-9)

    def test_batch_kernel_matches_per_pair(self, rng):
        query = rng.normal(size=30)
        candidates = rng.normal(size=(7, 30))
        band = sakoe_chiba_band(30, 30, 4)
        from repro.dtw.distances import absolute_distance

        distances, cells, abandoned = banded_dtw_batch(
            query, candidates, band, absolute_distance
        )
        assert not abandoned.any()
        for c in range(7):
            reference = banded_dtw(query, candidates[c], band, return_path=False)
            assert distances[c] == reference.distance
            assert cells[c] == reference.cells_filled


class TestBatchTopK:
    def test_matches_row_wise_ranking(self):
        matrix = np.array([[3.0, 1.0, 2.0], [0.5, 0.5, 0.1]])
        assert batch_top_k(matrix, 2) == [[1, 2], [2, 0]]

    def test_exclusion_per_row(self):
        matrix = np.array([[0.0, 1.0, 2.0], [5.0, 0.0, 2.0]])
        assert batch_top_k(matrix, 1, exclude=[0, 1]) == [[1], [2]]

    def test_bad_exclude_length_rejected(self):
        with pytest.raises(ValidationError):
            batch_top_k(np.zeros((2, 3)), 1, exclude=[0])


class TestRewiredRetrievalFrontDoor:
    """The Workspace facade took over the retired search-engine shim."""

    def test_batch_knn_matches_single_queries(self, dataset):
        from repro.service import EngineConfig, Workspace, WorkspaceConfig

        workspace = Workspace(WorkspaceConfig(engine=EngineConfig(
            constraint="fc,fw", backend="vectorized")))
        workspace.add_dataset(dataset)
        queries = [dataset[i].values for i in range(3)]
        excludes = [dataset[i].identifier for i in range(3)]
        batch = workspace.knn(queries, 3, exclude_identifiers=excludes)
        for qi, result in enumerate(batch.results):
            single = workspace.query(queries[qi], 3, mode="exact",
                                     exclude_identifier=excludes[qi])
            assert [h.index for h in result.hits] == [
                h.index for h in single.hits
            ]

    def test_workspace_exposes_underlying_engine(self, dataset):
        from repro.service import Workspace

        workspace = Workspace()
        workspace.add_dataset(dataset)
        assert isinstance(workspace.engine, DistanceEngine)
        assert len(workspace.engine) == len(dataset)


class TestCandidateRestriction:
    """The indexing subsystem's re-rank hook: scans restricted to subsets."""

    def test_restricted_scan_matches_full_scan_on_subset(self, dataset):
        engine = DistanceEngine("fc,fw")
        engine.add_dataset(dataset)
        subset = [1, 3, 4, 8]
        restricted = engine.query(dataset[0].values, 3,
                                  candidate_indices=subset)
        small = DistanceEngine("fc,fw")
        for index in subset:
            small.add(dataset[index].values)
        reference = small.query(dataset[0].values, 3)
        assert [subset[h.index] for h in reference.hits] == \
            [h.index for h in restricted.hits]
        assert [h.distance for h in reference.hits] == \
            [h.distance for h in restricted.hits]

    def test_full_candidate_list_equals_unrestricted_query(self, dataset):
        engine = DistanceEngine("fc,fw")
        engine.add_dataset(dataset)
        everything = list(range(len(dataset)))
        restricted = engine.query(dataset[2].values, 4,
                                  candidate_indices=everything)
        unrestricted = engine.query(dataset[2].values, 4)
        assert restricted.indices == unrestricted.indices
        assert [h.distance for h in restricted.hits] == \
            [h.distance for h in unrestricted.hits]

    def test_restriction_composes_with_exclusion(self, dataset):
        engine = DistanceEngine("fc,fw")
        identifiers = engine.add_dataset(dataset)
        result = engine.query(dataset[0].values, 2,
                              exclude_identifier=identifiers[1],
                              candidate_indices=[0, 1, 2])
        assert 1 not in result.indices
        assert set(result.indices) <= {0, 2}

    def test_candidate_stats_reflect_the_subset(self, dataset):
        engine = DistanceEngine("fc,fw")
        engine.add_dataset(dataset)
        result = engine.query(dataset[0].values, 2, candidate_indices=[0, 5, 6])
        assert result.stats.candidates == 3

    def test_out_of_range_candidates_rejected(self, dataset):
        engine = DistanceEngine("fc,fw")
        engine.add_dataset(dataset)
        with pytest.raises(ValidationError):
            engine.query(dataset[0].values, 1,
                         candidate_indices=[0, len(dataset)])

    def test_per_query_candidate_lists_in_batch(self, dataset):
        engine = DistanceEngine("fc,fw", backend="vectorized")
        engine.add_dataset(dataset)
        queries = [dataset[0].values, dataset[1].values]
        batch = engine.knn(queries, 2, candidate_indices=[[0, 1, 2], None])
        assert set(batch.results[0].indices) <= {0, 1, 2}
        assert batch.results[1].indices == engine.query(queries[1], 2).indices

    def test_mismatched_candidate_list_length_rejected(self, dataset):
        engine = DistanceEngine("fc,fw")
        engine.add_dataset(dataset)
        with pytest.raises(ValidationError):
            engine.knn([dataset[0].values], 1, candidate_indices=[[0], [1]])

    def test_multiprocessing_backend_honours_candidates(self, dataset):
        engine = DistanceEngine("fc,fw", backend="multiprocessing",
                                num_workers=2)
        engine.add_dataset(dataset)
        queries = [dataset[0].values, dataset[1].values]
        batch = engine.knn(queries, 2, candidate_indices=[[0, 1, 2], [3, 4, 5]])
        assert set(batch.results[0].indices) <= {0, 1, 2}
        assert set(batch.results[1].indices) <= {3, 4, 5}


class TestQueryFeatureLifetime:
    """A query's salient features live for the query only: the engine's
    feature cache holds the stored series and nothing else."""

    def test_cache_holds_stored_series_only_after_many_queries(self, dataset):
        engine = DistanceEngine("ac,aw", backend="serial")
        engine.add_dataset(dataset)
        engine.prepare()
        assert len(engine._sdtw._feature_cache) == len(dataset)
        rng = np.random.default_rng(4)
        for i in range(12):
            base = dataset[i % len(dataset)].values
            engine.query(base + rng.normal(0.0, 0.05, base.size), 3)
        engine.distance_matrix([dataset[0].values + 0.1])
        assert len(engine._sdtw._feature_cache) == len(dataset)

    def test_stored_query_reuses_cached_features(self, dataset, monkeypatch):
        import repro.core.sdtw as sdtw_module

        engine = DistanceEngine("ac,aw", backend="serial")
        engine.add_dataset(dataset)
        engine.prepare()
        calls = []
        original = sdtw_module.extract_salient_features
        monkeypatch.setattr(
            sdtw_module, "extract_salient_features",
            lambda *args: calls.append(1) or original(*args),
        )
        engine.query(dataset[2].values, 3)
        assert calls == []
