"""Incremental index maintenance: delta shards, tombstones, compaction.

Covers the three contracts of the incremental layer:

* ``add_series`` is O(new features): it appends one delta shard, never
  touches existing shards, and the new series is immediately scoreable.
* ``remove_series`` tombstones a slot: the series disappears from every
  score and candidate list (at any budget) without a rebuild.
* ``compact()`` folds base + deltas - tombstones into a fresh base shard
  set that is **bit-identical** to ``InvertedIndex.from_bags`` over the
  surviving bags (a from-scratch rebuild under the same frozen
  codebook).

The Workspace owns the index, so the searcher-level contracts run
through it too: an added series is found, compaction is bit-identical
under the frozen codebook, delta shards and tombstones survive close and
``Workspace.open``, and index directories with legacy PQ state answer
like untouched ones.  Plus the rest of the Workspace-level incremental
path (auto-compaction, removal, close/open cycles).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import DescriptorConfig, SDTWConfig
from repro.datasets.synthetic import make_gun_like
from repro.exceptions import DatasetError, ValidationError
from repro.indexing import IndexReader, InvertedIndex
from repro.indexing.shards import (
    OPTIONAL_SHARD_MEMBERS,
    SHARD_MEMBERS,
    load_npz,
)
from repro.service import IndexConfig, Workspace, WorkspaceConfig

CONFIG = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))
WORKSPACE_CONFIG = WorkspaceConfig(
    sdtw=CONFIG,
    index=IndexConfig(
        num_codewords=24, num_shards=3, candidate_budget=6, seed=11,
    ),
)

ALL_SHARD_MEMBERS = SHARD_MEMBERS + OPTIONAL_SHARD_MEMBERS


def _bag(codewords, counts):
    return (
        np.asarray(codewords, dtype=np.int64),
        np.asarray(counts, dtype=np.float64),
    )


def _manual_bags():
    return [
        _bag([0, 2, 5], [1.0, 2.0, 1.0]),
        _bag([1, 2], [1.5, 0.5]),
        _bag([3, 4, 5, 7], [1.0, 1.0, 1.0, 1.0]),
        _bag([0, 7], [2.0, 1.0]),
    ]


def assert_indexes_bit_identical(left: InvertedIndex, right: InvertedIndex):
    assert left.num_series == right.num_series
    assert left.num_codewords == right.num_codewords
    assert np.array_equal(left.idf, right.idf)
    assert len(left.shards) == len(right.shards)
    assert not left.delta_shards and not right.delta_shards
    for ours, theirs in zip(left.shards, right.shards):
        assert ours.first_codeword == theirs.first_codeword
        assert ours.last_codeword == theirs.last_codeword
        for member in ALL_SHARD_MEMBERS:
            mine, other = getattr(ours, member), getattr(theirs, member)
            assert (mine is None) == (other is None), member
            if mine is not None:
                assert np.array_equal(np.asarray(mine), np.asarray(other)), member


@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=14, seed=23)


def _indexed(workspace, dataset):
    workspace.add_dataset(dataset)
    workspace.build_index()
    return workspace


def _indexed_workspace(path, dataset):
    """A path-backed copy of the ``workspace`` fixture."""
    return _indexed(Workspace.create(path, WORKSPACE_CONFIG), dataset)


@pytest.fixture()
def workspace(dataset):
    return _indexed(Workspace(WORKSPACE_CONFIG), dataset)


class TestInvertedIndexIncremental:
    def test_add_series_is_scoreable_and_rankable(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8, num_shards=2)
        base_shards = list(index.shards)
        slot = index.add_series(_bag([2, 6], [1.0, 1.0]))
        assert slot == 4
        assert index.num_series == 5
        assert index.num_delta_shards == 1
        assert index.shards == base_shards  # base untouched
        scores, touched = index.scores(_bag([6], [1.0]))
        assert touched[slot]
        assert scores[slot] > 0.0
        assert slot in index.candidates(_bag([2, 6], [1.0, 1.0]), 5).tolist()

    def test_add_series_validates_bag(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8)
        with pytest.raises(ValidationError):
            index.add_series(_bag([9], [1.0]))  # out of range
        with pytest.raises(ValidationError):
            index.add_series(_bag([3, 1], [1.0, 1.0]))  # unsorted

    def test_remove_series_tombstones_at_any_budget(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8, num_shards=2)
        index.remove_series(1)
        assert index.num_tombstones == 1
        assert index.num_live == 3
        scores, touched = index.scores(_bag([1, 2], [1.0, 1.0]))
        assert not touched[1]
        assert scores[1] == 0.0
        for limit in (1, 2, 4, 100):
            assert 1 not in index.candidates(_bag([2], [1.0]), limit).tolist()

    def test_remove_series_out_of_range(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8)
        with pytest.raises(ValidationError):
            index.remove_series(4)
        with pytest.raises(ValidationError):
            index.remove_series(-1)

    def test_clone_isolates_mutations(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8)
        clone = index.clone()
        clone.add_series(_bag([0], [1.0]))
        clone.remove_series(0)
        assert index.num_series == 4
        assert index.num_delta_shards == 0
        assert index.num_tombstones == 0

    def test_compact_bit_identical_to_from_bags(self):
        bags = _manual_bags()
        extra = [_bag([2, 6], [1.0, 2.0]), _bag([0, 1, 3], [1.0, 1.0, 1.0])]
        incremental = InvertedIndex.from_bags(bags, 8, num_shards=2)
        for bag in extra:
            incremental.add_series(bag)
        compacted, slot_map = incremental.compact(num_shards=2)
        fresh = InvertedIndex.from_bags(bags + extra, 8, num_shards=2)
        assert slot_map.tolist() == list(range(6))
        assert_indexes_bit_identical(compacted, fresh)

    def test_compact_drops_tombstones_and_renumbers(self):
        bags = _manual_bags()
        incremental = InvertedIndex.from_bags(bags, 8, num_shards=2)
        incremental.add_series(_bag([2, 6], [1.0, 2.0]))
        incremental.remove_series(1)
        incremental.remove_series(4)
        compacted, slot_map = incremental.compact(num_shards=2)
        assert slot_map.tolist() == [0, -1, 1, 2, -1]
        survivors = [bags[0], bags[2], bags[3]]
        assert_indexes_bit_identical(
            compacted, InvertedIndex.from_bags(survivors, 8, num_shards=2)
        )

    def test_compact_with_every_slot_removed_rejected(self):
        index = InvertedIndex.from_bags(_manual_bags()[:1], 8)
        index.remove_series(0)
        with pytest.raises(ValidationError):
            index.compact()

    def test_compact_requires_counts(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8)
        stripped = [
            type(shard)(
                first_codeword=shard.first_codeword,
                last_codeword=shard.last_codeword,
                codeword_ids=shard.codeword_ids,
                offsets=shard.offsets,
                series=shard.series,
                weights=shard.weights,
            )
            for shard in index.shards
        ]
        legacy = InvertedIndex(
            num_series=index.num_series,
            num_codewords=index.num_codewords,
            shards=stripped,
            idf=index.idf,
        )
        assert not legacy.supports_incremental
        with pytest.raises(ValidationError):
            legacy.compact()


class TestSearcherIncremental:
    def test_add_series_then_query_finds_it(self, workspace, dataset):
        probe = dataset[0].values * 0.9 + 0.05
        identifier = workspace.add(probe, identifier="fresh")
        assert identifier == "fresh"
        assert workspace.stats()["index"]["delta_shards"] == 1
        result = workspace.query(probe, 3, mode="indexed")
        assert "fresh" in result.ids
        # C = N still reproduces the exhaustive ranking bit for bit.
        exact = workspace.query(probe, 3, mode="exact")
        full = workspace.query(probe, 3, mode="indexed",
                               candidates=len(workspace))
        assert full.ids == exact.ids
        assert full.distances == exact.distances

    def test_add_series_rejects_duplicate_identifier(self, workspace, dataset):
        taken = workspace.identifiers[0]
        with pytest.raises(ValidationError):
            workspace.add(dataset[0].values, identifier=taken)
        index = workspace.stats()["index"]
        assert index["num_slots"] == len(dataset)
        assert index["delta_shards"] == 0

    def test_compact_matches_fresh_build_under_frozen_codebook(
        self, workspace, dataset
    ):
        codebook = workspace.searcher.codebook
        for offset in range(3):
            workspace.add(
                dataset[offset].values * (0.8 + 0.1 * offset),
                identifier=f"delta-{offset}",
            )
        workspace.compact_index()
        searcher = workspace.searcher
        assert searcher.codebook is codebook
        bags = [
            codebook.bag(
                workspace._store.features_of(identifier),
                workspace.series_of(identifier).size,
            )
            for identifier in workspace.identifiers
        ]
        fresh = InvertedIndex.from_bags(
            bags, codebook.num_codewords, num_shards=len(searcher.index.shards),
        )
        assert_indexes_bit_identical(searcher.index, fresh)

    def test_compact_preserves_full_budget_results(self, workspace, dataset):
        workspace.add(dataset[1].values * 1.1, identifier="later")
        probe = dataset[2].values
        before = workspace.query(probe, 4, mode="indexed",
                                 candidates=len(workspace))
        workspace.compact_index()
        after = workspace.query(probe, 4, mode="indexed",
                                candidates=len(workspace))
        assert before.ids == after.ids
        assert before.distances == after.distances


class TestDeltaPersistence:
    def test_add_save_open_query_round_trip(self, dataset, tmp_path):
        path = str(tmp_path / "ws")
        probe = dataset[0].values * 0.85
        with _indexed_workspace(path, dataset) as workspace:
            workspace.add(probe, identifier="delta-a")
            workspace.add(dataset[3].values * 1.15, identifier="delta-b")
            expected = workspace.query(probe, 4, mode="indexed")

        reader = IndexReader.open(os.path.join(path, "index"))
        assert reader.index.num_delta_shards == 2
        assert reader.index.supports_incremental
        with Workspace.open(path) as reopened:
            assert reopened.stats()["index"]["delta_shards"] == 2
            result = reopened.query(probe, 4, mode="indexed")
        assert result.ids == expected.ids
        assert result.distances == expected.distances

    def test_tombstones_survive_reopen(self, dataset, tmp_path):
        path = str(tmp_path / "ws")
        with _indexed_workspace(path, dataset) as workspace:
            workspace.add(dataset[0].values * 0.7, identifier="doomed")
            workspace.remove("doomed")

        reader = IndexReader.open(os.path.join(path, "index"))
        assert reader.index.num_tombstones == 1
        assert reader.index.num_delta_shards == 1
        assert "doomed" not in reader.live_identifiers()
        with Workspace.open(path) as reopened:
            index = reopened.stats()["index"]
            assert index["tombstones"] == 1
            assert index["delta_shards"] == 1
            result = reopened.query(dataset[0].values * 0.7, 5, mode="indexed",
                                    candidates=reader.index.num_series)
        assert "doomed" not in result.ids


def _add_legacy_pq_parts(directory: str, version: int) -> None:
    """Give an index directory the product-quantizer state older releases
    wrote: dense ``pq_*`` shard members (manifest version 2) or the
    bit-packed ``pq_codes_packed`` + ``pq_codes_shape`` pair (version 3),
    plus a ``pq.npz`` named by the manifest's ``pq_file``."""
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    for entry in manifest["shards"] + manifest["delta_shards"]:
        path = os.path.join(directory, entry["file"])
        members = load_npz(path)
        rows = int(members["series"].size)
        members["pq_codeword_ids"] = members["codeword_ids"]
        members["pq_offsets"] = members["offsets"]
        members["pq_series"] = members["series"]
        if version == 2:
            members["pq_codes"] = np.ones((rows, 4), dtype=np.uint8)
        else:
            # Four 4-bit codes per row.
            members["pq_codes_packed"] = np.ones(2 * rows, dtype=np.uint8)
            members["pq_codes_shape"] = np.array([4, rows, 4], dtype=np.int64)
        np.savez(path, **members)
        entry["num_pq_postings"] = rows
    np.savez(
        os.path.join(directory, "pq.npz"),
        centroids=np.zeros((4, 16, 2)), dim=np.array(8),
    )
    manifest["pq_file"] = "pq.npz"
    manifest["version"] = version
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


class TestLegacyPQIndexDirectories:
    """A workspace whose ``index/`` came from a release with a product
    quantizer opens, answers exactly like the same workspace without PQ
    state, and ``repro workspace compact`` rewrites it without that
    state."""

    @staticmethod
    def _answers(path, dataset, *, mmap):
        manifest_path = os.path.join(path, "workspace.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["config"]["index"]["mmap"] = mmap
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        answers = []
        with Workspace.open(path) as workspace:
            assert workspace.config.index == dataclasses.replace(
                WORKSPACE_CONFIG.index, mmap=mmap
            )
            searcher = workspace.searcher
            assert searcher.index.is_memory_mapped is mmap
            for ts in dataset.series[:4]:
                result = workspace.query(ts.values, 4, mode="indexed",
                                         exclude_identifier=ts.identifier)
                answers.append((
                    searcher.generate_candidates(ts.values).tolist(),
                    result.ids,
                    result.distances,
                ))
        return answers

    @pytest.mark.parametrize("version", [2, 3])
    def test_legacy_members_are_ignored_and_compacted_away(
        self, dataset, tmp_path, version
    ):
        plain = str(tmp_path / "plain")
        with _indexed_workspace(plain, dataset) as workspace:
            workspace.add(dataset[0].values * 0.9, identifier="delta-a")
        legacy = str(tmp_path / "legacy")
        shutil.copytree(plain, legacy)
        legacy_index = os.path.join(legacy, "index")
        _add_legacy_pq_parts(legacy_index, version)

        for mmap in (True, False):
            assert self._answers(legacy, dataset, mmap=mmap) == self._answers(
                plain, dataset, mmap=mmap
            )

        assert main(["workspace", "compact", legacy]) == 0
        assert main(["workspace", "compact", plain]) == 0
        assert self._answers(legacy, dataset, mmap=True) == self._answers(
            plain, dataset, mmap=True
        )
        with open(os.path.join(legacy_index, "manifest.json"),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert "pq_file" not in manifest
        assert not os.path.exists(os.path.join(legacy_index, "pq.npz"))
        assert not manifest["delta_shards"]
        for entry in manifest["shards"]:
            assert "num_pq_postings" not in entry
            members = set(load_npz(os.path.join(legacy_index, entry["file"])))
            assert members == set(ALL_SHARD_MEMBERS)

    def test_nothing_to_compact_keeps_legacy_members_until_save(
        self, dataset, tmp_path, capsys
    ):
        path = str(tmp_path / "legacy")
        _indexed_workspace(path, dataset).close()
        index_dir = os.path.join(path, "index")
        _add_legacy_pq_parts(index_dir, 3)
        capsys.readouterr()

        assert main(["workspace", "compact", path]) == 0
        assert "nothing to compact" in capsys.readouterr().out
        assert os.path.exists(os.path.join(index_dir, "pq.npz"))

        with Workspace.open(path) as workspace:
            workspace.save()
        with open(os.path.join(index_dir, "manifest.json"),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert "pq_file" not in manifest
        assert not os.path.exists(os.path.join(index_dir, "pq.npz"))
        for entry in manifest["shards"]:
            assert "num_pq_postings" not in entry
            members = set(load_npz(os.path.join(index_dir, entry["file"])))
            assert members == set(ALL_SHARD_MEMBERS)


class TestWorkspaceIncremental:
    @pytest.fixture()
    def config(self):
        return WorkspaceConfig(
            sdtw=CONFIG,
            index=IndexConfig(
                num_codewords=24, num_shards=2, candidate_budget=6,
                seed=11,
            ),
            default_k=3,
        )

    def test_close_open_cycle_keeps_incremental_index(
        self, tmp_path, dataset, config
    ):
        path = str(tmp_path / "ws")
        with Workspace.create(path, config) as workspace:
            for ts in dataset.series[:8]:
                workspace.add(ts.values, identifier=ts.identifier,
                              label=ts.label)
            workspace.build_index()
            for ts in dataset.series[8:11]:
                workspace.add(ts.values, identifier=ts.identifier,
                              label=ts.label)
            assert workspace.has_index
            expected = workspace.query(dataset[9].values, 3,
                                       exclude_identifier=dataset[9].identifier)
            assert expected.mode == "indexed"

        reopened = Workspace.open(path)
        stats = reopened.stats()["index"]
        assert stats["delta_shards"] == 3
        assert not stats["stale"]
        result = reopened.query(dataset[9].values, 3,
                                exclude_identifier=dataset[9].identifier)
        assert result.mode == "indexed"
        assert result.ids == expected.ids
        assert result.distances == expected.distances
        # ...and the incremental path keeps working after reopening.
        reopened.add(dataset[11].values, identifier=dataset[11].identifier)
        assert reopened.has_index
        assert reopened.stats()["index"]["delta_shards"] == 4
        reopened.close()

    def test_removed_series_never_returned(self, dataset, config):
        workspace = Workspace(config)
        for ts in dataset.series[:10]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        workspace.build_index()
        victim = dataset[4].identifier
        workspace.remove(victim)
        assert workspace.has_index
        assert victim not in workspace.identifiers
        result = workspace.query(dataset[4].values, 5, candidates=100)
        assert result.mode == "indexed"
        assert victim not in result.ids
        exact = workspace.query(dataset[4].values, 5, mode="exact")
        assert victim not in exact.ids

    def test_remove_unknown_identifier_rejected(self, dataset, config):
        workspace = Workspace(config)
        workspace.add(dataset[0].values, identifier="only")
        with pytest.raises(DatasetError):
            workspace.remove("missing")

    def test_auto_compaction_bounds_delta_shards(self, dataset, config):
        bounded = WorkspaceConfig(
            sdtw=CONFIG,
            index=IndexConfig(
                num_codewords=24, num_shards=2, candidate_budget=6,
                seed=11, max_delta_shards=2,
            ),
            default_k=3,
        )
        workspace = Workspace(bounded)
        for ts in dataset.series[:6]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        workspace.build_index()
        for ts in dataset.series[6:11]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        stats = workspace.stats()["index"]
        assert stats["delta_shards"] <= 2
        assert stats["num_live"] == 11
        # Every series is retrievable after the automatic folds.
        result = workspace.query(dataset[10].values, 3, candidates=11,
                                 exclude_identifier=dataset[10].identifier)
        exact = workspace.query(dataset[10].values, 3, mode="exact",
                                exclude_identifier=dataset[10].identifier)
        assert result.ids == exact.ids

    def test_compact_index_is_invisible_to_full_budget_queries(
        self, dataset, config
    ):
        workspace = Workspace(config)
        for ts in dataset.series[:9]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        workspace.build_index()
        workspace.add(dataset[9].values, identifier=dataset[9].identifier)
        workspace.remove(dataset[2].identifier)
        before = workspace.query(dataset[0].values, 4, candidates=100,
                                 exclude_identifier=dataset[0].identifier)
        workspace.compact_index()
        stats = workspace.stats()["index"]
        assert stats["delta_shards"] == 0
        assert stats["tombstones"] == 0
        after = workspace.query(dataset[0].values, 4, candidates=100,
                                exclude_identifier=dataset[0].identifier)
        assert before.ids == after.ids
        assert before.distances == after.distances
