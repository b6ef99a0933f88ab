"""Query-result records: slotted, and equal after a pickle round trip.

A retained query result holds five records: ``EngineHit``,
``EngineStats``, ``TraceStage``, ``QueryTrace`` and
``WorkspaceQueryResult``.  They declare ``__slots__`` so that a caller
keeping many results pays no per-instance ``__dict__``; the
multiprocessing backend pickles hits and stats back from its workers.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.datasets.synthetic import make_gun_like
from repro.engine import DistanceEngine, EngineHit, EngineStats
from repro.service import Workspace
from repro.service.config import EngineConfig, WorkspaceConfig
from repro.service.workspace import WorkspaceQueryResult
from repro.telemetry import QueryTrace, TraceStage


@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=12, seed=8)


@pytest.fixture(scope="module")
def workspace_result(dataset):
    workspace = Workspace.in_memory(
        WorkspaceConfig(engine=EngineConfig(constraint="fc,fw"))
    )
    workspace.add_batch(
        [ts.values for ts in dataset],
        identifiers=[ts.identifier for ts in dataset],
        labels=[ts.label for ts in dataset],
    )
    return workspace.query(np.asarray(dataset[0].values) + 0.05, 3, mode="exact")


def test_records_are_slotted(workspace_result):
    assert workspace_result.trace is not None
    records = {
        WorkspaceQueryResult: workspace_result,
        EngineHit: workspace_result.hits[0],
        EngineStats: workspace_result.stats,
        QueryTrace: workspace_result.trace,
        TraceStage: workspace_result.trace.stages[0],
    }
    for cls, record in records.items():
        assert type(record) is cls
        assert "__slots__" in cls.__dict__, cls.__name__
        assert not hasattr(record, "__dict__"), cls.__name__


def test_workspace_result_survives_pickle(workspace_result):
    restored = pickle.loads(pickle.dumps(workspace_result))
    assert restored == workspace_result
    assert restored.trace.stages == workspace_result.trace.stages


def test_multiprocessing_results_survive_pickle(dataset):
    engine = DistanceEngine("fc,fw", backend="multiprocessing", num_workers=2)
    engine.add_dataset(dataset)
    queries = [np.asarray(dataset[i].values) + 0.05 for i in range(3)]
    batch = engine.knn(queries, k=3)
    serial = DistanceEngine("fc,fw", backend="vectorized")
    serial.add_dataset(dataset)
    want = serial.knn(queries, k=3)
    for result, reference in zip(batch.results, want.results):
        # Hits and stats came back from the workers through pickle.
        assert result.hits == reference.hits
        restored = pickle.loads(pickle.dumps(result))
        assert restored == result
        assert isinstance(restored.stats, EngineStats)
