"""Concurrency tests for the Workspace: threaded reads must be
serial-identical on the serial and vectorized backends, and must survive
concurrent mutation."""

from __future__ import annotations

import threading

import pytest

from repro.datasets.synthetic import make_gun_like
from repro.service import (
    EngineConfig,
    IndexConfig,
    Workspace,
    WorkspaceConfig,
)

NUM_THREADS = 8


@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=12, seed=29)


def _config(backend: str = "vectorized") -> WorkspaceConfig:
    return WorkspaceConfig(
        engine=EngineConfig(constraint="fc,fw", backend=backend),
        index=IndexConfig(num_codewords=24, num_shards=2, candidate_budget=6),
        default_k=3,
    )


def _run_threaded(workspace, queries, *, mode="exact", repeats=2):
    """Each of NUM_THREADS threads answers every query; returns all outcomes."""
    results = [[None] * len(queries) for _ in range(NUM_THREADS)]
    errors = []
    barrier = threading.Barrier(NUM_THREADS)

    def worker(slot):
        try:
            barrier.wait()
            for _ in range(repeats):
                for qi, values in enumerate(queries):
                    outcome = workspace.query(values, 3, mode=mode)
                    results[slot][qi] = (outcome.ids, outcome.distances)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the test
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(slot,))
        for slot in range(NUM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


class TestThreadedReads:
    # "serial" is the thread-contended configuration: eight threads each
    # drive a Python row loop over one shared engine.
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_eight_threads_serial_identical_exact(self, dataset, backend):
        workspace = Workspace(_config(backend))
        workspace.add_dataset(dataset)
        queries = [ts.values for ts in dataset.series[:4]]
        serial = [
            (r.ids, r.distances)
            for r in (workspace.query(q, 3, mode="exact") for q in queries)
        ]
        for per_thread in _run_threaded(workspace, queries):
            assert per_thread == serial

    def test_eight_threads_serial_identical_indexed(self, dataset):
        workspace = Workspace(_config())
        workspace.add_dataset(dataset)
        workspace.build_index()
        queries = [ts.values for ts in dataset.series[:4]]
        serial = [
            (r.ids, r.distances)
            for r in (workspace.query(q, 3, mode="indexed") for q in queries)
        ]
        for per_thread in _run_threaded(workspace, queries, mode="indexed"):
            assert per_thread == serial


class TestReadsDuringMutation:
    def test_queries_survive_concurrent_adds(self, dataset):
        """Readers racing add_batch never crash and never see a torn state;
        once the writer finishes, results equal a serial engine over the
        final collection."""
        workspace = Workspace(_config())
        first, rest = dataset.series[:6], dataset.series[6:]
        workspace.add_batch(
            [ts.values for ts in first],
            [ts.identifier for ts in first],
            [ts.label for ts in first],
        )
        queries = [ts.values for ts in first[:3]]
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                for values in queries:
                    try:
                        outcome = workspace.query(values, 2, mode="exact")
                        assert len(outcome.hits) == 2
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

        threads = [threading.Thread(target=reader) for _ in range(NUM_THREADS)]
        for thread in threads:
            thread.start()
        for ts in rest:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        stop.set()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

        final = Workspace(_config())
        final.add_dataset(dataset)
        for values in queries:
            ours = workspace.query(values, 3, mode="exact")
            want = final.query(values, 3, mode="exact")
            assert ours.ids == want.ids
            assert ours.distances == want.distances

    def test_queries_survive_concurrent_build_index(self, dataset):
        workspace = Workspace(_config())
        workspace.add_dataset(dataset)
        queries = [ts.values for ts in dataset.series[:3]]
        serial = [
            (r.ids, r.distances)
            for r in (workspace.query(q, 3, mode="exact") for q in queries)
        ]
        errors = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                for qi, values in enumerate(queries):
                    try:
                        outcome = workspace.query(values, 3, mode="exact")
                        assert (outcome.ids, outcome.distances) == serial[qi]
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        workspace.build_index()
        done.set()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        assert workspace.has_index
