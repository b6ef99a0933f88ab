"""Tests for the Workspace facade: equivalence to the direct subsystem
calls, persistence round trips, mode resolution and lifecycle errors."""

from __future__ import annotations

import gc
import json
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from repro.core.features import extract_salient_features
from repro.datasets.synthetic import make_gun_like
from repro.engine import DistanceEngine
from repro.exceptions import (
    DatasetError,
    ValidationError,
    WorkspaceError,
)
from repro.indexing import (
    Codebook,
    CodebookConfig,
    IndexedSearcher,
    InvertedIndex,
)
from repro.service import (
    EngineConfig,
    IndexConfig,
    ServingConfig,
    Workspace,
    WorkspaceConfig,
    run_doctor,
)


@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=12, seed=17)


@pytest.fixture(scope="module")
def config():
    return WorkspaceConfig(
        engine=EngineConfig(constraint="fc,fw"),
        index=IndexConfig(num_codewords=24, num_shards=2, candidate_budget=6),
        default_k=3,
    )


def _direct_engine(dataset, config):
    """The direct DistanceEngine a Workspace must be bit-identical to."""
    engine = DistanceEngine(
        config.engine.constraint,
        config.sdtw,
        backend=config.engine.backend,
        prune=config.engine.prune,
        early_abandon=config.engine.early_abandon,
        batch_size=config.engine.batch_size,
    )
    engine.add_dataset(dataset)
    return engine


def _direct_searcher(dataset, config):
    """The direct IndexedSearcher a Workspace index must be identical to."""
    features = [
        extract_salient_features(ts.values, config.sdtw) for ts in dataset
    ]
    lengths = [ts.values.size for ts in dataset]
    codebook = Codebook(CodebookConfig.for_sdtw(
        config.sdtw,
        num_codewords=config.index.num_codewords,
        seed=config.index.seed,
    )).fit(features, lengths)
    index = InvertedIndex.from_bags(
        [codebook.bag(f, n) for f, n in zip(features, lengths)],
        codebook.num_codewords,
        num_shards=config.index.num_shards,
    )
    return IndexedSearcher(
        index, codebook, _direct_engine(dataset, config),
        config=config.sdtw,
        candidate_budget=config.index.candidate_budget,
    )


def _fill(workspace, dataset):
    workspace.add_dataset(dataset)
    return workspace


class TestExactEquivalence:
    def test_exact_mode_bit_identical_to_engine(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        direct = _direct_engine(dataset, config)
        for ts in dataset:
            ours = workspace.query(ts.values, 3, mode="exact",
                                   exclude_identifier=ts.identifier)
            theirs = direct.query(ts.values, 3,
                                  exclude_identifier=ts.identifier)
            assert ours.ids == tuple(h.identifier for h in theirs.hits)
            assert ours.distances == tuple(h.distance for h in theirs.hits)

    def test_auto_without_index_resolves_to_exact(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        result = workspace.query(dataset[0].values, 2)
        assert result.requested_mode == "auto"
        assert result.mode == "exact"
        assert result.scan_fraction == pytest.approx(1.0)

    def test_default_k_comes_from_config(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        result = workspace.query(dataset[0].values)
        assert len(result.hits) == config.default_k

    def test_knn_matches_per_query_results(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        queries = [ts.values for ts in dataset.series[:4]]
        batch = workspace.knn(queries, 3)
        for qi, values in enumerate(queries):
            single = workspace.query(values, 3, mode="exact")
            assert batch.results[qi].hits == single.hits


class TestIndexedEquivalence:
    def test_indexed_mode_bit_identical_to_searcher(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        workspace.build_index()
        direct = _direct_searcher(dataset, config)
        for ts in dataset.series[:6]:
            ours = workspace.query(ts.values, 3, mode="indexed",
                                   exclude_identifier=ts.identifier)
            theirs = direct.query(ts.values, 3,
                                  exclude_identifier=ts.identifier)
            assert ours.ids == tuple(h.identifier for h in theirs.hits)
            assert ours.distances == tuple(h.distance for h in theirs.hits)
            assert ours.candidates_generated == theirs.candidates_generated

    def test_auto_with_index_resolves_to_indexed(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        workspace.build_index()
        result = workspace.query(dataset[0].values, 2)
        assert result.mode == "indexed"
        assert result.scan_fraction <= 1.0

    def test_full_budget_indexed_matches_exact(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        workspace.build_index()
        exact = workspace.query(dataset[3].values, 3, mode="exact",
                                exclude_identifier=dataset[3].identifier)
        indexed = workspace.query(dataset[3].values, 3, mode="indexed",
                                  candidates=len(dataset),
                                  exclude_identifier=dataset[3].identifier)
        assert indexed.ids == exact.ids
        assert indexed.distances == exact.distances

    @pytest.mark.parametrize("constraint", ["fc,fw", "ac,aw"])
    def test_build_index_over_a_tombstoned_engine(
        self, dataset, config, constraint
    ):
        """``build_index()`` keeps a derived engine's dead slots: the next
        read wraps the new index around that engine through the slot
        mapping, and answers as a fresh workspace over the survivors."""
        cfg = WorkspaceConfig(
            engine=EngineConfig(constraint=constraint),
            index=config.index,
            default_k=config.default_k,
        )
        workspace = _fill(Workspace(cfg), dataset)
        workspace.query(dataset[0].values, 3, mode="exact")
        removed = {dataset[2].identifier, dataset[7].identifier}
        for identifier in removed:
            workspace.remove(identifier)
        version = workspace.query(
            dataset[0].values, 3, mode="exact"
        ).snapshot_version
        workspace.build_index()
        first = workspace.query(dataset[0].values, 3, mode="indexed")
        assert first.snapshot_version == version + 1
        engine = workspace.engine
        assert engine.alive_mask is not None
        assert int((~engine.alive_mask).sum()) == len(removed)
        assert workspace.searcher.engine is engine

        fresh = Workspace(cfg)
        for ts in dataset:
            if ts.identifier not in removed:
                fresh.add(ts.values, identifier=ts.identifier, label=ts.label)
        fresh.build_index()
        for ts in dataset.series[:6]:
            query = ts.values + 0.01
            for budget in (3, len(fresh)):
                ours = workspace.query(query, 3, mode="indexed",
                                       candidates=budget)
                theirs = fresh.query(query, 3, mode="indexed",
                                     candidates=budget)
                assert ours.ids == theirs.ids
                assert ours.indices == theirs.indices
                assert np.asarray(ours.distances).tobytes() == \
                    np.asarray(theirs.distances).tobytes()

    def test_add_marks_index_stale_without_incremental(self, dataset, config):
        cfg = WorkspaceConfig(
            engine=config.engine,
            index=IndexConfig(
                num_codewords=24, num_shards=2, candidate_budget=6,
                incremental=False,
            ),
            default_k=config.default_k,
        )
        workspace = _fill(Workspace(cfg), dataset)
        workspace.build_index()
        assert workspace.has_index
        workspace.add(dataset[0].values * 0.5)
        assert not workspace.has_index
        assert workspace.query(dataset[0].values, 2).mode == "exact"
        with pytest.raises(WorkspaceError):
            workspace.query(dataset[0].values, 2, mode="indexed")
        workspace.build_index()
        assert workspace.query(dataset[0].values, 2).mode == "indexed"

    def test_add_keeps_index_fresh_incrementally(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        workspace.build_index()
        assert workspace.has_index
        identifier = workspace.add(dataset[0].values * 0.5)
        # The default (incremental) path absorbs the mutation as a delta
        # shard: no staleness, auto still resolves to the indexed path,
        # and the new series is immediately retrievable.
        assert workspace.has_index
        assert workspace.stats()["index"]["delta_shards"] == 1
        result = workspace.query(dataset[0].values * 0.5, 2)
        assert result.mode == "indexed"
        assert identifier in result.ids


class TestPersistence:
    def test_create_add_index_reopen_query_round_trip(
        self, tmp_path, dataset, config
    ):
        path = str(tmp_path / "ws")
        with Workspace.create(path, config) as workspace:
            workspace.add_dataset(dataset)
            workspace.build_index()
        assert os.path.exists(os.path.join(path, "workspace.json"))
        assert os.path.exists(os.path.join(path, "store.npz"))
        assert os.path.exists(os.path.join(path, "index", "manifest.json"))

        reopened = Workspace.open(path)
        assert reopened.config == config
        assert len(reopened) == len(dataset)
        assert reopened.has_index
        assert reopened.searcher.index.is_memory_mapped

        direct_engine = _direct_engine(dataset, config)
        direct_searcher = _direct_searcher(dataset, config)
        for ts in dataset.series[:5]:
            exact = reopened.query(ts.values, 3, mode="exact",
                                   exclude_identifier=ts.identifier)
            want = direct_engine.query(ts.values, 3,
                                       exclude_identifier=ts.identifier)
            assert exact.ids == tuple(h.identifier for h in want.hits)
            assert exact.distances == tuple(h.distance for h in want.hits)

            indexed = reopened.query(ts.values, 3, mode="indexed",
                                     exclude_identifier=ts.identifier)
            want_idx = direct_searcher.query(ts.values, 3,
                                             exclude_identifier=ts.identifier)
            assert indexed.ids == tuple(h.identifier for h in want_idx.hits)
            assert indexed.distances == tuple(
                h.distance for h in want_idx.hits
            )

            auto = reopened.query(ts.values, 3,
                                  exclude_identifier=ts.identifier)
            assert auto.mode == "indexed"
            assert auto.ids == indexed.ids
            assert auto.distances == indexed.distances
        reopened.close()

    def test_reopen_without_index(self, tmp_path, dataset, config):
        path = str(tmp_path / "ws")
        with Workspace.create(path, config) as workspace:
            workspace.add_dataset(dataset)
        reopened = Workspace.open(path)
        assert not reopened.has_index
        assert reopened.query(dataset[0].values, 2).mode == "exact"

    def test_create_refuses_existing_workspace(self, tmp_path, config):
        path = str(tmp_path / "ws")
        Workspace.create(path, config).close()
        with pytest.raises(WorkspaceError):
            Workspace.create(path, config)
        assert isinstance(Workspace.create(path, config, overwrite=True),
                          Workspace)

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(WorkspaceError):
            Workspace.open(str(tmp_path / "nope"))

    def test_manifest_preserves_insertion_order_and_labels(
        self, tmp_path, dataset, config
    ):
        path = str(tmp_path / "ws")
        with Workspace.create(path, config) as workspace:
            workspace.add_dataset(dataset)
        reopened = Workspace.open(path)
        assert reopened.identifiers == [
            ts.identifier for ts in dataset
        ]
        assert reopened.labels == dataset.labels


class TestFeatureStoreWrittenOnce:
    """A workspace keeps one feature store, at its root; its ``index/``
    directory bundles none.  A workspace whose ``index/`` still holds the
    copy older releases wrote opens, answers and passes the doctor like
    an untouched one, and loses the copy at its next save."""

    @staticmethod
    def _index_manifest(path):
        with open(os.path.join(path, "index", "manifest.json"),
                  encoding="utf-8") as handle:
            return json.load(handle)

    def test_index_directory_holds_no_feature_store(
        self, tmp_path, dataset, config
    ):
        path = str(tmp_path / "ws")
        workspace = _fill(Workspace.create(path, config), dataset)
        workspace.build_index()
        assert os.path.exists(os.path.join(path, "store.npz"))
        assert not os.path.exists(os.path.join(path, "index", "store.npz"))
        manifest = self._index_manifest(path)
        assert "store_file" in manifest
        assert manifest["store_file"] is None
        workspace.close()

    def test_bundled_store_is_ignored_then_dropped_on_save(
        self, tmp_path, dataset, config
    ):
        untouched = str(tmp_path / "untouched")
        with _fill(Workspace.create(untouched, config), dataset) as workspace:
            workspace.build_index()
        target = str(tmp_path / "older")
        shutil.copytree(untouched, target)
        bundled = os.path.join(target, "index", "store.npz")
        shutil.copyfile(os.path.join(target, "store.npz"), bundled)
        manifest = self._index_manifest(target)
        manifest["store_file"] = "store.npz"
        with open(os.path.join(target, "index", "manifest.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(manifest, handle)

        with Workspace.open(target) as older, \
                Workspace.open(untouched) as reference:
            for ts in dataset.series[:4]:
                for mode in ("exact", "indexed"):
                    ours = older.query(ts.values, mode=mode,
                                       exclude_identifier=ts.identifier)
                    theirs = reference.query(ts.values, mode=mode,
                                             exclude_identifier=ts.identifier)
                    assert ours.mode == mode
                    assert ours.ids == theirs.ids
                    assert ours.distances == theirs.distances
            report = run_doctor(older)
            assert report.healthy, report.rows()
            assert os.path.exists(bundled)
            older.save()
        assert not os.path.exists(bundled)
        assert self._index_manifest(target)["store_file"] is None


class TestLazyFeatureExtraction:
    def test_fixed_constraint_add_defers_extraction(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        workspace.query(dataset[0].values, 2, mode="exact")
        store = workspace._store
        assert not any(store.has_features(i) for i in workspace.identifiers)

    def test_build_index_materialises_features(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        workspace.build_index()
        store = workspace._store
        assert all(store.has_features(i) for i in workspace.identifiers)

    def test_save_materialises_features(self, tmp_path, dataset, config):
        path = str(tmp_path / "ws")
        with Workspace.create(path, config) as workspace:
            workspace.add_dataset(dataset)
        reopened = Workspace.open(path)
        store = reopened._store
        assert all(store.has_features(i) for i in reopened.identifiers)

    def test_adaptive_constraint_extracts_into_store_once(self, dataset):
        from repro.core.config import DescriptorConfig, SDTWConfig

        workspace = Workspace(WorkspaceConfig(
            sdtw=SDTWConfig(descriptor=DescriptorConfig(num_bins=16)),
            engine=EngineConfig(constraint="ac,aw"),
        ))
        workspace.add_batch([ts.values for ts in dataset.series[:4]])
        workspace.query(dataset[0].values, 2, mode="exact")
        store = workspace._store
        assert all(store.has_features(i) for i in workspace.identifiers)


class TestLifecycleErrors:
    def test_duplicate_identifier_rejected(self, config):
        workspace = Workspace(config)
        workspace.add([1.0, 2.0, 3.0], identifier="a")
        with pytest.raises(ValidationError):
            workspace.add([4.0, 5.0, 6.0], identifier="a")

    def test_add_batch_is_atomic_on_duplicates(self, config):
        workspace = Workspace(config)
        workspace.add([1.0, 2.0, 3.0], identifier="a")
        with pytest.raises(ValidationError):
            workspace.add_batch(
                [[1.0, 2.0], [3.0, 4.0]], identifiers=["b", "a"]
            )
        with pytest.raises(ValidationError):
            workspace.add_batch(
                [[1.0, 2.0], [3.0, 4.0]], identifiers=["c", "c"]
            )
        assert workspace.identifiers == ["a"]
        workspace.add_batch([[1.0, 2.0], [3.0, 4.0]], identifiers=["b", "c"])
        assert workspace.identifiers == ["a", "b", "c"]

    def test_query_on_empty_workspace_raises(self, config):
        # PR 6: a clean WorkspaceError (not a numpy/engine error) on both
        # the never-filled and the everything-removed empty workspace.
        with pytest.raises(WorkspaceError, match="empty workspace"):
            Workspace(config).query([1.0, 2.0, 3.0], 1)

    def test_unknown_mode_rejected(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        with pytest.raises(ValidationError):
            workspace.query(dataset[0].values, 1, mode="psychic")

    def test_build_index_on_empty_workspace_raises(self, config):
        with pytest.raises(DatasetError):
            Workspace(config).build_index()

    def test_save_on_in_memory_workspace_raises(self, config):
        with pytest.raises(WorkspaceError):
            Workspace(config).save()

    def test_use_after_close_raises(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        workspace.close()
        with pytest.raises(WorkspaceError):
            workspace.query(dataset[0].values, 1)
        with pytest.raises(WorkspaceError):
            workspace.add([1.0, 2.0])


class TestMutatedPathEdgeCases:
    """PR 6 regression tests: edge cases on the derived-snapshot path."""

    def test_k_larger_than_live_collection_clamps(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        workspace.query(dataset[0].values, 2, mode="exact")  # build snapshot
        for ts in dataset.series[3:]:
            workspace.remove(ts.identifier)
        live = len(workspace)
        assert live == 3
        result = workspace.query(dataset[0].values, 50, mode="exact")
        assert len(result.hits) == live
        assert result.collection_size == live
        batch = workspace.knn([dataset[0].values], 50)
        assert len(batch.results[0].hits) == live

    def test_query_after_removing_every_series_raises_cleanly(
        self, dataset, config
    ):
        workspace = _fill(Workspace(config), dataset)
        workspace.query(dataset[0].values, 2, mode="exact")  # build snapshot
        for ts in dataset.series:
            workspace.remove(ts.identifier)
        with pytest.raises(WorkspaceError, match="empty workspace"):
            workspace.query(dataset[0].values, 1, mode="exact")
        with pytest.raises(WorkspaceError, match="empty workspace"):
            workspace.knn([dataset[0].values], 1)

    def test_query_racing_remove_of_last_series(self, dataset, config):
        """Readers racing the removal of the final series either serve the
        pre-mutation snapshot or get a clean WorkspaceError — never a
        numpy index error."""
        import threading

        workspace = Workspace(config)
        workspace.add(dataset[0].values, identifier="only")
        workspace.query(dataset[0].values, 1, mode="exact")
        start = threading.Barrier(5)
        errors: list = []

        def reader():
            start.wait()
            for _ in range(50):
                try:
                    outcome = workspace.query(dataset[0].values, 1, mode="exact")
                    assert outcome.ids == ("only",)
                except WorkspaceError:
                    pass  # clean post-removal signal
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        start.wait()
        workspace.remove("only")
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        with pytest.raises(WorkspaceError, match="empty workspace"):
            workspace.query(dataset[0].values, 1, mode="exact")

    def test_indexed_k_larger_than_live_collection_clamps(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        workspace.build_index()
        workspace.query(dataset[0].values, 2, mode="indexed")
        for ts in dataset.series[4:]:
            workspace.remove(ts.identifier)
        live = len(workspace)
        result = workspace.query(
            dataset[0].values, 50, mode="indexed", candidates=100
        )
        assert len(result.hits) == live
        assert set(result.ids) == set(workspace.identifiers)


class TestRetiredServingKeys:
    """Manifests written while ServingConfig still had its five retention
    settings, its three query-batching knobs and its snapshot-rebuild
    switch list them; such workspaces open, answer like a fresh
    workspace, pass the doctor and re-save without them."""

    RETIRED = {
        "trace_ring": 7,
        "event_log_ring": 9,
        "event_log_file": False,
        "event_log_max_bytes": 2048,
        "slow_query_ring": 3,
        "micro_batch": True,
        "batch_window_ms": 1.0,
        "max_batch": 8,
        "incremental_snapshots": False,
    }

    def test_old_manifest_opens_answers_and_resaves(
        self, dataset, config, tmp_path
    ):
        target = str(tmp_path / "ws")
        workspace = _fill(Workspace.create(target, config), dataset)
        workspace.build_index()
        workspace.close()
        manifest_path = os.path.join(target, "workspace.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["config"]["serving"].update(self.RETIRED)
        assert len(manifest["config"]["serving"]) == 11
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)

        fresh = _fill(Workspace(config), dataset)
        fresh.build_index()
        with Workspace.open(target) as reopened:
            for mode in ("exact", "indexed"):
                ours = reopened.query(dataset[0].values, mode=mode)
                theirs = fresh.query(dataset[0].values, mode=mode)
                assert ours.ids == theirs.ids
                assert ours.distances == theirs.distances
            report = run_doctor(reopened)
            assert report.healthy, report.rows()
            reopened.save()
        with open(manifest_path, encoding="utf-8") as handle:
            serving = json.load(handle)["config"]["serving"]
        assert not set(self.RETIRED) & set(serving)
        assert len(serving) == 2

    def test_other_unknown_serving_key_still_raises(self):
        with pytest.raises(TypeError):
            ServingConfig.from_dict({"trace_rings": 7, "batching": True})


class TestRetiredIndexKeys:
    """Manifests written while IndexConfig still had its product-quantizer
    knobs list them, possibly with ``rank_mode: "pq"``; such workspaces
    open, answer in TF-IDF mode like a fresh workspace, and re-save
    without the keys."""

    RETIRED = {
        "pq": True,
        "pq_subquantizers": 8,
        "pq_bits": 4,
        "rank_mode": "pq",
    }

    def test_old_manifest_opens_answers_and_resaves(
        self, dataset, config, tmp_path
    ):
        target = str(tmp_path / "ws")
        workspace = _fill(Workspace.create(target, config), dataset)
        workspace.build_index()
        workspace.close()
        manifest_path = os.path.join(target, "workspace.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert not set(self.RETIRED) & set(manifest["config"]["index"])
        manifest["config"]["index"].update(self.RETIRED)
        assert len(manifest["config"]["index"]) == 13
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)

        fresh = _fill(Workspace(config), dataset)
        fresh.build_index()
        with Workspace.open(target) as reopened:
            assert reopened.config == config
            for mode in ("exact", "indexed"):
                ours = reopened.query(dataset[0].values, mode=mode)
                theirs = fresh.query(dataset[0].values, mode=mode)
                assert ours.ids == theirs.ids
                assert ours.distances == theirs.distances
            report = run_doctor(reopened)
            assert report.healthy, report.rows()
            reopened.save()
        with open(manifest_path, encoding="utf-8") as handle:
            index = json.load(handle)["config"]["index"]
        assert not set(self.RETIRED) & set(index)
        assert len(index) == 9

    def test_other_unknown_index_key_still_raises(self):
        with pytest.raises(TypeError):
            IndexConfig.from_dict({"num_codewords": 8, "rank_modes": "pq"})


class TestRetiredSDTWKey:
    """Manifests written while SDTWConfig still had ``neighbor_radius``
    carry it in the workspace's ``sdtw`` section and in the index's
    ``extraction_config``; such workspaces open and answer bit-identically
    under an adaptive constraint, and re-save without the key."""

    def test_old_manifests_open_and_answer_identically(self, dataset, tmp_path):
        config = WorkspaceConfig(
            engine=EngineConfig(constraint="ac2,aw"),
            index=IndexConfig(num_codewords=24, num_shards=2, candidate_budget=6),
            default_k=3,
        )
        target = str(tmp_path / "ws")
        workspace = _fill(Workspace.create(target, config), dataset)
        workspace.build_index()
        workspace.close()
        manifest_path = os.path.join(target, "workspace.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert "neighbor_radius" not in manifest["config"]["sdtw"]
        manifest["config"]["sdtw"]["neighbor_radius"] = 3
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        index_manifest_path = os.path.join(
            target, manifest["index_dir"], "manifest.json"
        )
        with open(index_manifest_path, encoding="utf-8") as handle:
            index_manifest = json.load(handle)
        # Older releases also recorded the full sdtw config in the index
        # manifest; today's writer leaves that key null.
        assert index_manifest["extraction_config"] is None
        index_manifest["extraction_config"] = manifest["config"]["sdtw"]
        with open(index_manifest_path, "w", encoding="utf-8") as handle:
            json.dump(index_manifest, handle)

        fresh = _fill(Workspace(config), dataset)
        fresh.build_index()
        with Workspace.open(target) as reopened:
            for mode in ("exact", "indexed"):
                ours = reopened.query(dataset[0].values, mode=mode)
                theirs = fresh.query(dataset[0].values, mode=mode)
                assert ours.ids == theirs.ids
                assert ours.distances == theirs.distances
            reopened.save()
        with open(manifest_path, encoding="utf-8") as handle:
            assert "neighbor_radius" not in json.load(handle)["config"]["sdtw"]
        with open(index_manifest_path, encoding="utf-8") as handle:
            assert json.load(handle)["extraction_config"] is None


class TestPairwiseAndStreaming:
    def test_pairwise_matches_direct_sdtw(self, dataset, config):
        from repro.core.sdtw import SDTW

        workspace = Workspace(config)
        x, y = dataset[0].values, dataset[1].values
        ours = workspace.pairwise(x, y, constraint="ac,aw")
        theirs = SDTW(config.sdtw).distance(x, y, constraint="ac,aw")
        assert ours.distance == theirs.distance

    def test_pairwise_defaults_to_engine_constraint(self, dataset, config):
        from repro.core.sdtw import SDTW

        workspace = Workspace(config)
        x, y = dataset[0].values, dataset[1].values
        ours = workspace.pairwise(x, y)
        theirs = SDTW(config.sdtw).distance(
            x, y, constraint=config.engine.constraint
        )
        assert ours.distance == theirs.distance

    def test_pairwise_retains_no_features_across_calls(self, config):
        # Each call's features die with it; keeping the features of 80
        # distinct ac,aw pairs would retain about 4 MiB.
        workspace = Workspace(config)

        def pair(seed):
            rng = np.random.default_rng(seed)
            return rng.standard_normal(96).cumsum(), rng.standard_normal(96).cumsum()

        workspace.pairwise(*pair(0), constraint="ac,aw")
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for seed in range(1, 81):
                workspace.pairwise(*pair(seed), constraint="ac,aw")
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20, retained

    def test_stream_registers_pattern_and_reports_matches(self, config):
        workspace = Workspace(config)
        pattern = np.sin(np.linspace(0, 6.28, 32))
        name = workspace.stream(pattern, threshold=2.0, mode="spring")
        workspace.add_stream("sensor")
        matches = workspace.extend(
            "sensor", np.concatenate([np.zeros(10), pattern, np.zeros(5)])
        )
        matches += workspace.monitor.finalize("sensor")
        assert name in workspace.monitor.patterns()
        assert any(m.pattern == name for m in matches)

    def test_monitor_remove_pattern_and_stream(self, config):
        workspace = Workspace(config)
        name = workspace.stream(np.sin(np.linspace(0, 6.28, 16)),
                                threshold=1.0)
        workspace.add_stream("s")
        workspace.monitor.remove_pattern(name)
        assert name not in workspace.monitor.patterns()
        workspace.monitor.remove_stream("s")
        assert "s" not in workspace.monitor.streams()
        with pytest.raises(ValidationError):
            workspace.monitor.remove_pattern("ghost")

    def test_auto_names_survive_removal(self, config):
        """Regression: len()-based auto names must skip survivors after a
        removal instead of colliding with them."""
        workspace = Workspace(config)
        pattern = np.sin(np.linspace(0, 6.28, 16))
        first = workspace.stream(pattern, threshold=1.0)
        second = workspace.stream(pattern, threshold=1.0)
        workspace.monitor.remove_pattern(first)
        third = workspace.stream(pattern, threshold=1.0)
        assert third != second
        assert second in workspace.monitor.patterns()
        assert third in workspace.monitor.patterns()

        s_first = workspace.add_stream()
        s_second = workspace.add_stream()
        workspace.monitor.remove_stream(s_first)
        s_third = workspace.add_stream()
        assert s_second in workspace.monitor.streams()
        assert s_third in workspace.monitor.streams()


class TestResultMetadata:
    def test_timings_cover_all_stages(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        workspace.build_index()
        result = workspace.query(dataset[0].values, 2, mode="indexed")
        timings = result.timings()
        for key in ("generation_seconds", "bound_seconds", "dp_seconds",
                    "rerank_seconds", "elapsed_seconds"):
            assert key in timings
        assert timings["elapsed_seconds"] >= timings["rerank_seconds"]
        assert result.candidates_generated <= len(dataset)

    def test_stats_summary_keys(self, dataset, config):
        workspace = _fill(Workspace(config), dataset)
        summary = workspace.stats()
        assert summary["num_series"] == len(dataset)
        assert summary["index"] is None
        workspace.build_index()
        assert workspace.stats()["index"]["stale"] is False
