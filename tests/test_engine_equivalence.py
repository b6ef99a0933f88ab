"""Cross-backend equivalence suite for the batch distance engine.

Every future backend or optimisation PR must prove it computes the same
distances: the serial, vectorized and multiprocessing backends are run
over the same synthetic collections, for every constraint family (full,
Sakoe–Chiba, Itakura and the four sDTW locally relevant types), and must
return identical distance matrices and identical k-NN rankings (within
1e-9 — in practice the kernels are bit-identical by construction).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_gun_like
from repro.engine import DistanceEngine
from repro.retrieval.knn import batch_top_k

BACKENDS = ("serial", "vectorized", "multiprocessing")
CONSTRAINTS = ("full", "fc,fw", "itakura", "fc,aw", "ac,fw", "ac,aw", "ac2,aw")

TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def equal_length_collection():
    """A small labelled collection where every series has the same length."""
    dataset = make_gun_like(num_series=10, seed=21)
    series = [(ts.identifier or f"s{i}", ts.values, ts.label)
              for i, ts in enumerate(dataset)]
    return series


@pytest.fixture(scope="module")
def unequal_length_collection(rng):
    """Random-walk series of varying lengths (exercises every fallback)."""
    series = []
    for i in range(8):
        length = int(rng.integers(40, 80))
        values = np.cumsum(rng.normal(size=length))
        series.append((f"walk-{i}", values, i % 2))
    return series


def _build_engine(collection, constraint, backend):
    engine = DistanceEngine(constraint, backend=backend, num_workers=2,
                            batch_size=4)
    for identifier, values, label in collection:
        engine.add(values, identifier=identifier, label=label)
    return engine


def _run_all_backends(collection, constraint, k=3, num_queries=3):
    queries = [values for _, values, _ in collection[:num_queries]]
    excludes = [identifier for identifier, _, _ in collection[:num_queries]]
    outcomes = {}
    for backend in BACKENDS:
        engine = _build_engine(collection, constraint, backend)
        knn = engine.knn(queries, k=k, exclude_identifiers=excludes)
        matrix = engine.distance_matrix(queries).distances
        outcomes[backend] = (knn, matrix)
    return outcomes


class TestEqualLengthCollections:
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_backends_agree(self, equal_length_collection, constraint):
        outcomes = _run_all_backends(equal_length_collection, constraint)
        reference_knn, reference_matrix = outcomes["serial"]
        for backend in BACKENDS[1:]:
            knn, matrix = outcomes[backend]
            # Identical k-NN rankings (indices, in rank order).
            assert knn.rankings() == reference_knn.rankings(), (
                f"{backend} ranking diverged for {constraint}"
            )
            # Identical hit distances.
            for ref_result, result in zip(reference_knn.results, knn.results):
                ref_distances = [hit.distance for hit in ref_result.hits]
                distances = [hit.distance for hit in result.hits]
                assert distances == pytest.approx(ref_distances, abs=TOLERANCE)
            # Identical distance matrices.
            np.testing.assert_allclose(
                matrix, reference_matrix, atol=TOLERANCE, rtol=0.0,
                err_msg=f"{backend} matrix diverged for {constraint}",
            )

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_cascade_matches_exhaustive_scan(self, equal_length_collection,
                                             constraint):
        """Pruning + abandoning must never change the k-NN result."""
        cascade = _build_engine(equal_length_collection, constraint, "vectorized")
        exhaustive = DistanceEngine(constraint, backend="serial", prune=False,
                                    early_abandon=False)
        for identifier, values, label in equal_length_collection:
            exhaustive.add(values, identifier=identifier, label=label)
        queries = [values for _, values, _ in equal_length_collection[:3]]
        excludes = [ident for ident, _, _ in equal_length_collection[:3]]
        got = cascade.knn(queries, k=3, exclude_identifiers=excludes)
        want = exhaustive.knn(queries, k=3, exclude_identifiers=excludes)
        assert got.rankings() == want.rankings()
        assert want.stats.pruned == 0
        assert want.stats.dtw_abandoned == 0

        # The re-rank path: a candidate subset scanned by both in-process
        # backends gives the exhaustive scan's answer over that subset.
        subset = [[1, 2, 4, 5, 7, 9]] * len(queries)
        serial = _build_engine(equal_length_collection, constraint, "serial")
        want = exhaustive.knn(queries, k=3, exclude_identifiers=excludes,
                              candidate_indices=subset)
        for engine in (serial, cascade):
            got = engine.knn(queries, k=3, exclude_identifiers=excludes,
                             candidate_indices=subset)
            assert got.rankings() == want.rankings()
            for got_result, want_result in zip(got.results, want.results):
                assert [hit.distance for hit in got_result.hits] == \
                    [hit.distance for hit in want_result.hits]
            assert got.stats.lb_keogh_computed == got.stats.candidates

    def test_matrix_rankings_match_search_rankings(self, equal_length_collection):
        """distance_matrix + batch_top_k reproduces the knn() rankings."""
        engine = _build_engine(equal_length_collection, "fc,fw", "vectorized")
        queries = [values for _, values, _ in equal_length_collection]
        matrix = engine.distance_matrix(queries).distances
        expected = batch_top_k(matrix, 3, exclude=list(range(len(queries))))
        knn = engine.knn(
            queries, k=3,
            exclude_identifiers=[i for i, _, _ in equal_length_collection],
        )
        assert [list(r) for r in knn.rankings()] == expected


class TestUnequalLengthCollections:
    @pytest.mark.parametrize("constraint", ("full", "fc,fw", "itakura", "ac,aw"))
    def test_backends_agree(self, unequal_length_collection, constraint):
        outcomes = _run_all_backends(unequal_length_collection, constraint)
        reference_knn, reference_matrix = outcomes["serial"]
        for backend in BACKENDS[1:]:
            knn, matrix = outcomes[backend]
            assert knn.rankings() == reference_knn.rankings()
            np.testing.assert_allclose(
                matrix, reference_matrix, atol=TOLERANCE, rtol=0.0
            )

    def test_cascade_matches_exhaustive_scan(self, unequal_length_collection):
        cascade = _build_engine(unequal_length_collection, "full", "serial")
        exhaustive = DistanceEngine("full", backend="serial", prune=False,
                                    early_abandon=False)
        for identifier, values, label in unequal_length_collection:
            exhaustive.add(values, identifier=identifier, label=label)
        queries = [values for _, values, _ in unequal_length_collection[:3]]
        got = cascade.knn(queries, k=4)
        want = exhaustive.knn(queries, k=4)
        assert got.rankings() == want.rankings()


class TestBackendPlumbing:
    def test_multiprocessing_single_query_falls_back_in_process(
        self, equal_length_collection
    ):
        engine = _build_engine(equal_length_collection, "fc,fw",
                               "multiprocessing")
        result = engine.knn([equal_length_collection[0][1]], k=2)
        assert len(result) == 1
        assert len(result[0].hits) == 2

    def test_results_arrive_in_query_order(self, equal_length_collection):
        engine = _build_engine(equal_length_collection, "fc,fw",
                               "multiprocessing")
        queries = [values for _, values, _ in equal_length_collection[:4]]
        excludes = [i for i, _, _ in equal_length_collection[:4]]
        batch = engine.knn(queries, k=1, exclude_identifiers=excludes)
        serial = _build_engine(equal_length_collection, "fc,fw", "serial")
        for qi, result in enumerate(batch.results):
            want = serial.query(queries[qi], 1,
                                exclude_identifier=excludes[qi])
            assert result.indices == want.indices
