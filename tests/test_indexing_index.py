"""Tests for the inverted index, shard storage and writer/reader."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.core.features import extract_salient_features
from repro.datasets.synthetic import make_gun_like
from repro.exceptions import DatasetError, ValidationError
from repro.indexing import (
    Codebook,
    CodebookConfig,
    IndexReader,
    IndexShard,
    IndexWriter,
    InvertedIndex,
    mmap_npz,
)

CONFIG = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))


def _toy_bags():
    """Three series over a 4-codeword space with hand-checkable overlap."""
    return [
        (np.array([0, 1], dtype=np.int32), np.array([2.0, 1.0])),
        (np.array([1, 2], dtype=np.int32), np.array([1.0, 1.0])),
        (np.array([3], dtype=np.int32), np.array([1.0])),
    ]


@pytest.fixture(scope="module")
def built():
    dataset = make_gun_like(num_series=15, length=96, seed=9)
    features = [extract_salient_features(ts.values, CONFIG) for ts in dataset]
    lengths = [ts.values.size for ts in dataset]
    codebook = Codebook(
        CodebookConfig.for_sdtw(CONFIG, num_codewords=32, seed=1)
    ).fit(features, lengths)
    bags = [codebook.bag(f, n) for f, n in zip(features, lengths)]
    index = InvertedIndex.from_bags(bags, codebook.num_codewords, num_shards=3)
    identifiers = [f"series-{i:03d}" for i in range(len(dataset))]
    query_bag = codebook.bag(features[0], lengths[0], query=True)
    return index, codebook, identifiers, query_bag


class TestInvertedIndexScoring:
    def test_manual_tfidf_scores(self):
        index = InvertedIndex.from_bags(_toy_bags(), 4, num_shards=1)
        # Series 0 queried against the index must score itself 1.0
        # (normalised dot with itself) and share only codeword 1 with
        # series 1.
        scores, touched = index.scores(_toy_bags()[0])
        assert scores[0] == pytest.approx(1.0)
        assert touched.tolist() == [True, True, False]
        assert 0.0 < scores[1] < scores[0]
        assert scores[2] == 0.0

    def test_disjoint_bags_never_touch(self):
        index = InvertedIndex.from_bags(_toy_bags(), 4, num_shards=2)
        scores, touched = index.scores(_toy_bags()[2])
        assert touched.tolist() == [False, False, True]
        assert scores[2] == pytest.approx(1.0)

    def test_candidates_ranked_then_padded(self):
        index = InvertedIndex.from_bags(_toy_bags(), 4, num_shards=1)
        ranked = index.candidates(_toy_bags()[0], limit=3)
        # Scored series first (0 then 1), untouched series 2 pads.
        assert ranked.tolist() == [0, 1, 2]
        assert index.candidates(_toy_bags()[0], limit=1).tolist() == [0]

    def test_limit_beyond_collection_returns_everything(self):
        index = InvertedIndex.from_bags(_toy_bags(), 4)
        assert index.candidates(_toy_bags()[2], limit=99).size == 3

    def test_empty_query_bag_pads_in_index_order(self):
        index = InvertedIndex.from_bags(_toy_bags(), 4)
        empty = (np.zeros(0, dtype=np.int32), np.zeros(0))
        assert index.candidates(empty, limit=2).tolist() == [0, 1]

    def test_out_of_range_codeword_rejected(self):
        index = InvertedIndex.from_bags(_toy_bags(), 4)
        bad = (np.array([7], dtype=np.int32), np.array([1.0]))
        with pytest.raises(ValidationError):
            index.scores(bad)

    def test_sharding_preserves_scores(self, built):
        index, codebook, _, query_bag = built
        bags_scores = index.scores(query_bag)[0]
        # Rebuild with a different shard count; scores must not move.
        dataset = make_gun_like(num_series=15, length=96, seed=9)
        features = [extract_salient_features(ts.values, CONFIG) for ts in dataset]
        lengths = [ts.values.size for ts in dataset]
        bags = [codebook.bag(f, n) for f, n in zip(features, lengths)]
        other = InvertedIndex.from_bags(bags, codebook.num_codewords, num_shards=7)
        assert np.array_equal(other.scores(query_bag)[0], bags_scores)


class TestShardStorage:
    def test_save_open_mmap_round_trip(self, built, tmp_path):
        index = built[0]
        shard = index.shards[0]
        path = tmp_path / "shard.npz"
        shard.save(path)
        reopened = IndexShard.open(
            path, shard.first_codeword, shard.last_codeword, mmap=True
        )
        assert reopened.is_memory_mapped
        assert np.array_equal(reopened.codeword_ids, shard.codeword_ids)
        assert np.array_equal(reopened.offsets, shard.offsets)
        assert np.array_equal(reopened.series, shard.series)
        assert np.array_equal(reopened.weights, shard.weights)

    def test_open_without_mmap_loads_plain_arrays(self, built, tmp_path):
        shard = built[0].shards[0]
        path = tmp_path / "shard.npz"
        shard.save(path)
        reopened = IndexShard.open(
            path, shard.first_codeword, shard.last_codeword, mmap=False
        )
        assert not reopened.is_memory_mapped
        assert np.array_equal(reopened.series, shard.series)

    def test_mmap_npz_maps_stored_members(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, a=np.arange(10), b=np.linspace(0, 1, 5))
        arrays = mmap_npz(path)
        assert isinstance(arrays["a"], np.memmap)
        assert np.array_equal(arrays["a"], np.arange(10))
        assert np.array_equal(arrays["b"], np.linspace(0, 1, 5))

    def test_mmap_npz_falls_back_on_compressed_members(self, tmp_path):
        path = tmp_path / "compressed.npz"
        np.savez_compressed(path, a=np.arange(10))
        arrays = mmap_npz(path)
        assert not isinstance(arrays["a"], np.memmap)
        assert np.array_equal(arrays["a"], np.arange(10))

    def test_postings_of_missing_codeword_is_empty(self, built):
        shard = built[0].shards[0]
        present = set(np.asarray(shard.codeword_ids).tolist())
        missing = next(
            c for c in range(shard.first_codeword, shard.last_codeword)
            if c not in present
        ) if len(present) < shard.last_codeword - shard.first_codeword else None
        if missing is None:
            pytest.skip("every codeword of the range is present")
        series, weights = shard.postings_of(missing)
        assert series.size == 0 and weights.size == 0


class TestWriterReader:
    def test_round_trip_bit_identical_candidates_and_scores(
        self, built, tmp_path
    ):
        index, codebook, identifiers, query_bag = built
        IndexWriter(tmp_path / "idx").write(index, codebook, identifiers)
        reader = IndexReader.open(tmp_path / "idx")
        assert reader.index.is_memory_mapped
        assert reader.identifiers == identifiers
        # Labels and the extraction config live in the workspace manifest;
        # the index manifest keeps both keys, written as null.
        manifest_path = tmp_path / "idx" / "manifest.json"
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["labels"] is None
        assert manifest["extraction_config"] is None
        original_scores, original_touched = index.scores(query_bag)
        reopened_scores, reopened_touched = reader.index.scores(query_bag)
        # Bit-identical, not approximately equal.
        assert np.array_equal(original_scores, reopened_scores)
        assert np.array_equal(original_touched, reopened_touched)
        for limit in (1, 5, len(identifiers)):
            assert np.array_equal(
                index.candidates(query_bag, limit),
                reader.index.candidates(query_bag, limit),
            )

    def test_reader_without_mmap(self, built, tmp_path):
        index, codebook, identifiers, query_bag = built
        IndexWriter(tmp_path / "idx").write(index, codebook, identifiers)
        reader = IndexReader.open(tmp_path / "idx", mmap=False)
        assert not reader.index.is_memory_mapped
        assert np.array_equal(
            index.scores(query_bag)[0], reader.index.scores(query_bag)[0]
        )

    def test_codebook_round_trips_through_directory(self, built, tmp_path):
        index, codebook, identifiers, _ = built
        IndexWriter(tmp_path / "idx").write(index, codebook, identifiers)
        reader = IndexReader.open(tmp_path / "idx")
        assert np.array_equal(reader.codebook.centroids, codebook.centroids)
        assert reader.codebook.config == codebook.config

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            IndexReader.open(tmp_path / "nowhere")

    def test_identifier_count_mismatch_rejected(self, built, tmp_path):
        index, codebook, identifiers, _ = built
        with pytest.raises(ValidationError):
            IndexWriter(tmp_path / "idx").write(
                index, codebook, identifiers[:-1]
            )


class TestValidation:
    def test_shards_must_cover_codeword_space(self):
        index = InvertedIndex.from_bags(_toy_bags(), 4)
        shard = index.shards[0]
        with pytest.raises(ValidationError):
            InvertedIndex(3, 8, [shard], np.ones(8))

    def test_idf_length_must_match(self):
        index = InvertedIndex.from_bags(_toy_bags(), 4)
        with pytest.raises(ValidationError):
            InvertedIndex(3, 4, index.shards, np.ones(5))

    def test_bag_codeword_out_of_range_rejected(self):
        bad = [(np.array([9], dtype=np.int32), np.array([1.0]))]
        with pytest.raises(ValidationError):
            InvertedIndex.from_bags(bad, 4)


class TestRebuildIdempotence:
    def test_rewrite_removes_stale_shards(self, built, tmp_path):
        import os

        index, codebook, identifiers, query_bag = built
        target = tmp_path / "idx"
        IndexWriter(target).write(index, codebook, identifiers)
        # Fake a leftover shard from a previous, wider build.
        stale = target / "shard-0099.npz"
        np.savez(stale, junk=np.arange(3))
        IndexWriter(target).write(index, codebook, identifiers)
        assert not stale.exists()
        shard_files = sorted(
            name for name in os.listdir(target)
            if name.startswith("shard-") and name.endswith(".npz")
        )
        assert len(shard_files) == len(index.shards)
        reader = IndexReader.open(target)
        assert np.array_equal(
            index.scores(query_bag)[0], reader.index.scores(query_bag)[0]
        )
