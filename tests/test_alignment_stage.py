"""The alignment stage: one pass builds the bands of many pairs.

``align_candidates`` must give each candidate the band the per-pair
path builds for it (``SDTW.build_band``), byte for byte, whatever the
two lengths, with or without features, inconsistency pruning or the
reverse band.  The per-partition ``m`` of the band functions must equal
their scalar calls, partition by partition.  And the engine's query path
must do no per-pair work: no ``SDTW.distance`` call, no feature set
stacked for a series whose features are cached, and no per-pair DP (each
chunk of candidates runs in one lock-step call).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core.alignment import align_candidates
from repro.core.bands import build_constraint_bands, resolve_constraint
from repro.core.config import MatchingConfig, SDTWConfig
from repro.core.features import FeatureSet
from repro.core.intervals import stack_partitions
from repro.core.sdtw import SDTW
from repro.datasets.synthetic import make_fiftywords_like
from repro.dtw.banded import validate_bands
from repro.engine import DistanceEngine, engine as engine_module
from repro.service import EngineConfig, IndexConfig, Workspace, WorkspaceConfig
from repro.utils.preprocessing import resample_linear

FAMILIES = ("fc,aw", "ac,fw", "ac,aw", "ac2,aw")


@pytest.fixture(scope="module")
def words():
    return [ts.values for ts in make_fiftywords_like(num_series=12, length=64, seed=11)]


def _stage_bands(query, candidates, constraint, config):
    sdtw = SDTW(config)
    features = [sdtw.extract_features(values)[0] for values in candidates]
    return align_candidates(
        resolve_constraint(constraint), sdtw.extract_features(query)[0],
        features, query.size, [values.size for values in candidates], config,
    )


def _assert_per_pair(query, candidates, constraint, config):
    bands = _stage_bands(query, candidates, constraint, config)
    oracle = SDTW(config)
    assert bands.shape == (len(candidates), query.size, 2)
    for band, values in zip(bands, candidates):
        want, _ = oracle.build_band(query, values, constraint)
        assert band.dtype == want.dtype
        assert band.tobytes() == want.tobytes()


class TestBandsEqualThePerPairBands:
    @pytest.mark.parametrize("symmetric", (False, True))
    @pytest.mark.parametrize("constraint", FAMILIES)
    def test_shorter_and_longer_candidates(self, words, constraint, symmetric):
        # The query has 60 samples; candidates run from 40 to 90, so the
        # stage sees n < m and n > m in one pass.
        query = resample_linear(words[0], 60)
        candidates = [
            resample_linear(values, length)
            for values, length in zip(words[1:], (40, 52, 60, 71, 83, 90))
        ]
        _assert_per_pair(query, candidates, constraint,
                         SDTWConfig(symmetric_band=symmetric))

    @pytest.mark.parametrize("constraint", FAMILIES)
    def test_featureless_candidate_and_query(self, words, constraint):
        flat = np.full(56, 1.5)
        config = SDTWConfig()
        assert len(SDTW(config).extract_features(flat)[0]) == 0
        # A candidate with no features among ones that have some ...
        _assert_per_pair(words[0], [words[1], flat, words[2]], constraint, config)
        # ... and a query with none.
        _assert_per_pair(flat, [words[1], resample_linear(words[2], 70)],
                         constraint, config)

    @pytest.mark.parametrize("constraint", FAMILIES)
    def test_without_inconsistency_pruning(self, words, constraint):
        config = SDTWConfig(matching=MatchingConfig(prune_inconsistencies=False))
        candidates = [resample_linear(values, 48 + 7 * i)
                      for i, values in enumerate(words[1:6])]
        _assert_per_pair(words[0], candidates, constraint, config)

    def test_ac2_neighbour_radius_differs_from_ac(self, words):
        # ac2,aw averages each interval width with its neighbours: the
        # stage must carry the radius, so its bands differ from ac,aw's
        # somewhere and still equal the per-pair bands.
        config = SDTWConfig()
        candidates = [resample_linear(values, 50 + 5 * i)
                      for i, values in enumerate(words[1:8])]
        _assert_per_pair(words[0], candidates, "ac2,aw", config)
        ac2 = _stage_bands(words[0], candidates, "ac2,aw", config)
        ac = _stage_bands(words[0], candidates, "ac,aw", config)
        assert not np.array_equal(ac2, ac)


class TestPerPartitionLengths:
    @pytest.mark.parametrize("constraint", FAMILIES + ("fc,fw",))
    def test_matches_the_scalar_call_partition_by_partition(self, constraint):
        rng = np.random.default_rng(4)
        n = 37
        lengths = np.array([12, 37, 60, 25, 90, 41])
        cut_counts = rng.integers(0, 6, lengths.size)
        cuts_x = np.concatenate(
            [np.sort(rng.integers(0, n, c)) for c in cut_counts]
        ).astype(np.intp)
        cuts_y = np.concatenate(
            [np.sort(rng.integers(0, m, c)) for m, c in zip(lengths, cut_counts)]
        ).astype(np.intp)
        stack = stack_partitions(cuts_x, cuts_y, cut_counts, n, lengths)
        bands = build_constraint_bands(n, lengths, constraint, stack)
        first = 0
        for index, (m, count) in enumerate(zip(lengths.tolist(), cut_counts.tolist())):
            one = stack_partitions(
                cuts_x[first: first + count], cuts_y[first: first + count],
                [count], n, m,
            )
            first += count
            alone = build_constraint_bands(n, m, constraint, one)[0]
            assert bands[index].tobytes() == alone.tobytes()

    def test_validate_bands_takes_one_length_per_band(self):
        rng = np.random.default_rng(8)
        n, lengths = 20, np.array([5, 20, 33])
        # Random windows, many of them broken: each is clipped or repaired
        # against its own column count.
        raw = rng.integers(-3, 40, (lengths.size, n, 2))
        got = validate_bands(raw, n, lengths)
        for index, m in enumerate(lengths.tolist()):
            assert np.array_equal(got[index], validate_bands(raw[index:index + 1], n, m)[0])


class TestNoPerPairWorkOnTheQueryPath:
    @staticmethod
    def _engine(words, backend, batch_size=32):
        engine = DistanceEngine("ac,aw", backend=backend, batch_size=batch_size)
        for i, values in enumerate(words[1:]):
            engine.add(resample_linear(values, 50 + 3 * i), identifier=f"w{i}")
        engine.prepare()
        return engine

    @staticmethod
    def _queries(engine, words):
        result = engine.query(words[0], k=3)
        engine.query(words[0], k=3, candidate_indices=[0, 2, 4, 6])
        assert len(result.hits) == 3
        assert result.stats.dtw_computed + result.stats.dtw_abandoned > 3

    @pytest.mark.parametrize("backend", ("serial", "vectorized"))
    def test_engine_never_calls_sdtw_distance(self, words, backend):
        engine = self._engine(words, backend)
        with mock.patch.object(
            engine._sdtw, "distance", wraps=engine._sdtw.distance
        ) as distance:
            self._queries(engine, words)
        distance.assert_not_called()

    @pytest.mark.parametrize("backend", ("serial", "vectorized"))
    def test_each_chunk_is_refined_in_one_lock_step_call(self, words, backend):
        # Eleven candidates in chunks of at most 3: every aligned chunk
        # goes to the kernel in one call, and no candidate alone.
        engine = self._engine(words, backend, batch_size=3)
        with mock.patch.object(
            engine_module, "banded_dtw_batch", wraps=engine_module.banded_dtw_batch
        ) as kernel, mock.patch.object(
            engine_module, "banded_dtw", wraps=engine_module.banded_dtw
        ) as per_pair, mock.patch.object(
            engine, "_align", wraps=engine._align
        ) as align:
            self._queries(engine, words)
        per_pair.assert_not_called()
        assert align.call_count >= 3
        assert kernel.call_count == align.call_count
        for kernel_call, align_call in zip(kernel.call_args_list, align.call_args_list):
            chunk = align_call.args[2]
            assert len(kernel_call.args[1]) == len(chunk) <= 3

    @pytest.mark.parametrize("backend", ("serial", "vectorized"))
    def test_engine_stacks_no_cached_series(self, words, backend):
        engine = self._engine(words, backend)
        with mock.patch.object(
            FeatureSet, "__init__", autospec=True, side_effect=FeatureSet.__init__
        ) as stacked:
            self._queries(engine, words)
        stacked.assert_not_called()

    def test_indexed_workspace_query_does_neither(self, words):
        ws = Workspace.in_memory(WorkspaceConfig(
            engine=EngineConfig(constraint="ac,aw"),
            index=IndexConfig(num_codewords=4, candidate_budget=6, seed=3),
        ))
        ws.add_batch([resample_linear(values, 48 + 4 * i)
                      for i, values in enumerate(words[1:])])
        ws.build_index()
        ws.query(words[0], 3, mode="indexed")  # derive the serving snapshot
        with mock.patch.object(
            SDTW, "distance", autospec=True, side_effect=SDTW.distance
        ) as distance, mock.patch.object(
            FeatureSet, "__init__", autospec=True, side_effect=FeatureSet.__init__
        ) as stacked:
            result = ws.query(words[0], 3, mode="indexed")
        assert result.mode == "indexed" and len(result.hits) == 3
        distance.assert_not_called()
        stacked.assert_not_called()
