"""Churn equivalence: interleaved add/remove/query against a Workspace
must be bit-identical to a fresh Workspace rebuilt from the surviving
series — across the exact and indexed paths, against an oracle workspace
whose every snapshot refresh is a rebuild, and for readers holding
pre-mutation snapshots.

These are the PR 6 acceptance tests for the incremental serving
snapshot: derivation (shared prepared segments + appended segments +
query-time tombstones) is an implementation detail that must never be
observable in results.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets.synthetic import make_gun_like
from repro.service import (
    EngineConfig,
    IndexConfig,
    Workspace,
    WorkspaceConfig,
)

K = 3


@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=16, seed=41)


def _config(*, backend="serial"):
    return WorkspaceConfig(
        engine=EngineConfig(constraint="fc,fw", backend=backend),
        index=IndexConfig(
            num_codewords=24,
            num_shards=2,
            candidate_budget=6,
        ),
        default_k=K,
    )


def _rebuilding_oracle(config):
    """A Workspace whose every snapshot refresh rebuilds from scratch.

    Any tombstone fraction exceeds a negative threshold, so
    ``_next_snapshot`` never derives on this instance.
    """
    workspace = Workspace(config)
    workspace._MAX_DEAD_FRACTION = -1.0
    return workspace


def _snapshots_of_kind(workspace, kind):
    counters = workspace.metrics_to_dict()["counters"]
    values = counters["repro_snapshots_total"]["values"]
    return values.get(f"kind={kind}", 0)


def _series_map(dataset):
    return {ts.identifier: (ts.values, ts.label) for ts in dataset.series}


def _fresh_from_survivors(config, dataset, survivors):
    """A from-scratch Workspace over the surviving roster, in order."""
    by_id = _series_map(dataset)
    fresh = Workspace(config)
    for identifier in survivors:
        values, label = by_id[identifier]
        fresh.add(values, identifier=identifier, label=label)
    return fresh


# One churn script: (op, identifier-index or None).  Queries interleave
# with adds and removes, including a remove-then-readd of the same id.
CHURN_SCRIPT = [
    ("query", None),
    ("add", 6), ("query", None),
    ("add", 7), ("add", 8), ("query", None),
    ("remove", 2), ("query", None),
    ("remove", 7), ("add", 9), ("query", None),
    ("add", 7), ("query", None),      # re-add a previously removed id
    ("remove", 0), ("remove", 5), ("query", None),
    ("add", 10), ("add", 11), ("remove", 3), ("query", None),
]


def _run_churn(workspace, dataset, *, mode, candidates=None, check=None):
    """Drive CHURN_SCRIPT; call `check(workspace, survivors)` per query."""
    by_id = _series_map(dataset)
    ids = [ts.identifier for ts in dataset.series]
    for position in range(6):  # seed roster
        values, label = by_id[ids[position]]
        workspace.add(values, identifier=ids[position], label=label)
    survivors = list(ids[:6])
    for op, arg in CHURN_SCRIPT:
        if op == "add":
            identifier = ids[arg]
            values, label = by_id[identifier]
            workspace.add(values, identifier=identifier, label=label)
            survivors.append(identifier)
        elif op == "remove":
            identifier = ids[arg]
            workspace.remove(identifier)
            survivors.remove(identifier)
        else:
            check(workspace, list(survivors))
    return survivors


def _outcomes(workspace, queries, *, mode, candidates=None):
    return [
        (r.ids, r.distances, r.indices)
        for r in (
            workspace.query(q, K, mode=mode, candidates=candidates)
            for q in queries
        )
    ]


class TestChurnExactEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_exact_bit_identical_to_fresh_rebuild(self, dataset, backend):
        queries = [ts.values for ts in dataset.series[:3]]
        config = _config(backend=backend)

        def check(workspace, survivors):
            fresh = _fresh_from_survivors(config, dataset, survivors)
            ours = _outcomes(workspace, queries, mode="exact")
            want = _outcomes(fresh, queries, mode="exact")
            assert ours == want

        workspace = Workspace(config)
        _run_churn(workspace, dataset, mode="exact", check=check)

    def test_derived_vs_rebuilt_snapshots_identical(self, dataset):
        """Derived snapshots must be indistinguishable from the rebuilding
        oracle at any candidate budget (same workspace lineage, same
        index deltas)."""
        queries = [ts.values for ts in dataset.series[:3]]
        derived = Workspace(_config())
        rebuilt = _rebuilding_oracle(_config())
        collected = {"derived": [], "rebuilt": []}

        def check_for(workspace, bucket):
            def check(_, survivors):
                collected[bucket].append(
                    _outcomes(workspace, queries, mode="exact")
                )
            return check

        _run_churn(derived, dataset, mode="exact",
                   check=check_for(derived, "derived"))
        _run_churn(rebuilt, dataset, mode="exact",
                   check=check_for(rebuilt, "rebuilt"))
        assert _snapshots_of_kind(rebuilt, "derived") == 0
        assert _snapshots_of_kind(rebuilt, "rebuilt") > 1
        assert _snapshots_of_kind(derived, "derived") > 0
        assert collected["derived"] == collected["rebuilt"]

    def test_derivation_actually_engaged(self, dataset):
        """The on-path sanity check: after a mutation the next snapshot
        shares the previous engine's prepared segments (it was derived,
        not rebuilt)."""
        workspace = Workspace(_config())
        for ts in dataset.series[:6]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        workspace.query(dataset[0].values, 2, mode="exact")
        before = workspace._serving
        assert before is not None
        workspace.add(dataset[6].values, identifier=dataset[6].identifier)
        workspace.query(dataset[0].values, 2, mode="exact")
        after = workspace._serving
        assert after is not None and after is not before
        before_segments = set(map(id, before.engine._prepared.segments))
        after_segments = set(map(id, after.engine._prepared.segments))
        assert before_segments & after_segments, (
            "derived snapshot does not share any prepared segment with "
            "its base — the O(new) derivation path did not engage"
        )


class TestChurnIndexedEquivalence:
    def test_indexed_bit_identical_to_fresh_at_full_budget(self, dataset):
        """With candidates >= N the indexed ranking equals the exhaustive
        one, so churned-vs-fresh must match even though delta-shard IDF
        drift can reorder *candidates* (budget covers everything)."""
        queries = [ts.values for ts in dataset.series[:3]]
        config = _config()
        budget = len(dataset.series) + 8

        def check(workspace, survivors):
            if not workspace.has_index:
                return
            fresh = _fresh_from_survivors(config, dataset, survivors)
            fresh.build_index()
            ours = _outcomes(
                workspace, queries, mode="indexed", candidates=budget
            )
            want = _outcomes(
                fresh, queries, mode="indexed", candidates=budget
            )
            assert ours == want

        workspace = Workspace(config)
        _run_churn_with_index(workspace, dataset, check=check, budget=budget)

    def test_indexed_derived_vs_rebuilt_snapshots_identical(self, dataset):
        """Derived and rebuilt snapshots over the same index state must be
        bit-identical at any candidate budget (the index deltas are
        shared; only the engine/snapshot lineage differs)."""
        queries = [ts.values for ts in dataset.series[:3]]
        outcomes = {}
        workspaces = {
            "derived": Workspace(_config()),
            "rebuilt": _rebuilding_oracle(_config()),
        }
        for bucket, workspace in workspaces.items():
            collected = []

            def check(ws, survivors, _collected=collected):
                if ws.has_index:
                    _collected.append(
                        _outcomes(ws, queries, mode="indexed", candidates=4)
                    )

            _run_churn_with_index(workspace, dataset, check=check, budget=4)
            outcomes[bucket] = collected
        assert _snapshots_of_kind(workspaces["rebuilt"], "derived") == 0
        assert _snapshots_of_kind(workspaces["rebuilt"], "rebuilt") > 1
        assert _snapshots_of_kind(workspaces["derived"], "derived") > 0
        assert outcomes["derived"] == outcomes["rebuilt"]
        assert outcomes["derived"], "no indexed queries ran"


def _run_churn_with_index(workspace, dataset, *, check, budget):
    """Like _run_churn but builds the index after seeding the roster."""
    by_id = _series_map(dataset)
    ids = [ts.identifier for ts in dataset.series]
    for position in range(6):
        values, label = by_id[ids[position]]
        workspace.add(values, identifier=ids[position], label=label)
    workspace.build_index()
    survivors = list(ids[:6])
    for op, arg in CHURN_SCRIPT:
        if op == "add":
            identifier = ids[arg]
            values, label = by_id[identifier]
            workspace.add(values, identifier=identifier, label=label)
            survivors.append(identifier)
        elif op == "remove":
            identifier = ids[arg]
            workspace.remove(identifier)
            survivors.remove(identifier)
        else:
            check(workspace, list(survivors))
    return survivors


class TestSnapshotIsolation:
    def test_pre_mutation_snapshot_serves_unchanged_results(self, dataset):
        """A reader holding the snapshot taken before a burst of churn
        keeps getting the exact pre-churn results — derivation must
        never mutate its base."""
        workspace = Workspace(_config())
        for ts in dataset.series[:8]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        queries = [ts.values for ts in dataset.series[:3]]
        baseline = _outcomes(workspace, queries, mode="exact")
        held = workspace._ensure_serving()

        stop = threading.Event()
        errors = []

        def old_reader():
            while not stop.is_set():
                for qi, values in enumerate(queries):
                    try:
                        result = held.engine.query(values, K)
                        got = (
                            tuple(h.identifier for h in result.hits),
                            tuple(h.distance for h in result.hits),
                        )
                        assert got == baseline[qi][:2]
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

        threads = [threading.Thread(target=old_reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for ts in dataset.series[8:12]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
            workspace.query(queries[0], 2, mode="exact")  # force derivations
        workspace.remove(dataset.series[1].identifier)
        workspace.query(queries[0], 2, mode="exact")
        stop.set()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

        # And the post-churn workspace equals a fresh rebuild.
        survivors = workspace.identifiers
        fresh = _fresh_from_survivors(_config(), dataset, survivors)
        assert _outcomes(workspace, queries, mode="exact") == _outcomes(
            fresh, queries, mode="exact"
        )

    def test_many_consecutive_derivations_stay_exact(self, dataset):
        """Chained derivations (each snapshot derived from the last) never
        drift from the fresh rebuild, and segment merging keeps the
        segment count logarithmic."""
        config = _config()
        workspace = Workspace(config)
        ts0 = dataset.series[0]
        workspace.add(ts0.values, identifier=ts0.identifier, label=ts0.label)
        workspace.query(ts0.values, 1, mode="exact")
        for step, ts in enumerate(dataset.series[1:], start=1):
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
            workspace.query(ts0.values, min(K, step + 1), mode="exact")
        snapshot = workspace._ensure_serving()
        num_segments = len(snapshot.engine._prepared.segments)
        assert num_segments <= int(np.log2(len(dataset.series))) + 2
        fresh = _fresh_from_survivors(config, dataset, workspace.identifiers)
        queries = [ts.values for ts in dataset.series[:4]]
        assert _outcomes(workspace, queries, mode="exact") == _outcomes(
            fresh, queries, mode="exact"
        )
