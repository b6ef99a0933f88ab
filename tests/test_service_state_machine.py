"""Sequential state machine over a path-backed Workspace.

The churn suite replays fixed operation scripts; this suite lets
hypothesis choose the order of adds, batch adds, removes, re-adds of a
removed identifier, index builds, compactions, close/reopen cycles and
saves that a second workspace, opened alongside, reads back.  After
every step the workspace must agree with a brute-force model:

* the exact top-k ids and distance bytes equal the model's ranking of
  the live roster (per-pair :meth:`SDTW.distance`, ties broken by
  roster position);
* an indexed query at a candidate budget of the live count equals the
  exact answer;
* ``run_doctor(ws, probe=False)`` reports no FAIL.

Because the checks run before every step, index builds land on derived
serving engines, tombstoned slots included.  Every model distance is
computed once per (query, pool series) pair, so a step costs one lookup
per live series.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.sdtw import SDTW
from repro.datasets.synthetic import make_gun_like
from repro.service import (
    EngineConfig,
    IndexConfig,
    Workspace,
    WorkspaceConfig,
    run_doctor,
)

K = 3
MIN_INDEXED = 4

# Two lengths, so fixed bands and adaptive alignments both see unequal
# series; the queries come from a different seed than the pool.
POOL = tuple(
    ts.values
    for dataset in (
        make_gun_like(num_series=5, length=32, seed=5),
        make_gun_like(num_series=5, length=40, seed=6),
    )
    for ts in dataset
)
QUERIES = tuple(
    ts.values for ts in make_gun_like(num_series=2, length=36, seed=17)
)


def _name(position: int) -> str:
    return f"pool-{position:02d}"


def _config(constraint: str) -> WorkspaceConfig:
    return WorkspaceConfig(
        engine=EngineConfig(constraint=constraint),
        index=IndexConfig(
            num_codewords=16, num_shards=2, candidate_budget=4,
            max_delta_shards=3,
        ),
        default_k=K,
    )


@lru_cache(maxsize=None)
def _model_distances(constraint: str) -> np.ndarray:
    """``(query, pool series)`` distances under *constraint*."""
    sdtw = SDTW(_config(constraint).sdtw)
    return np.array([
        [sdtw.distance(query, values, constraint).distance for values in POOL]
        for query in QUERIES
    ])


class _WorkspaceMachine(RuleBasedStateMachine):
    constraint: str  # set by each concrete machine

    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="workspace-machine-")
        self.path = os.path.join(self.directory, "ws")
        self.workspace = Workspace.create(self.path, _config(self.constraint))
        self.distances = _model_distances(self.constraint)
        self.roster: list = []  # pool positions, in roster order
        self.removed: list = []  # pool positions added and later removed

    def teardown(self) -> None:
        self.workspace.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _fresh(self) -> list:
        taken = set(self.roster) | set(self.removed)
        return [p for p in range(len(POOL)) if p not in taken]

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #
    @initialize(data=st.data())
    def seed_roster(self, data) -> None:
        count = data.draw(st.integers(1, MIN_INDEXED + 1), label="count")
        self._add_batch(list(range(count)))

    def _add_batch(self, positions: list) -> None:
        self.workspace.add_batch(
            [POOL[p] for p in positions], [_name(p) for p in positions]
        )
        self.roster.extend(positions)

    @precondition(lambda self: self._fresh())
    @rule(data=st.data())
    def add(self, data) -> None:
        position = data.draw(st.sampled_from(self._fresh()), label="add")
        self.workspace.add(POOL[position], identifier=_name(position))
        self.roster.append(position)

    @precondition(lambda self: len(self._fresh()) >= 2)
    @rule(data=st.data())
    def add_batch(self, data) -> None:
        positions = data.draw(
            st.lists(st.sampled_from(self._fresh()), min_size=2, max_size=3,
                     unique=True),
            label="add_batch",
        )
        self._add_batch(positions)

    @precondition(lambda self: len(self.roster) > 1)
    @rule(data=st.data())
    def remove(self, data) -> None:
        position = data.draw(st.sampled_from(self.roster), label="remove")
        self.workspace.remove(_name(position))
        self.roster.remove(position)
        self.removed.append(position)

    @precondition(lambda self: self.removed)
    @rule(data=st.data())
    def readd(self, data) -> None:
        position = data.draw(st.sampled_from(self.removed), label="readd")
        self.workspace.add(POOL[position], identifier=_name(position))
        self.removed.remove(position)
        self.roster.append(position)

    @precondition(lambda self: len(self.roster) >= MIN_INDEXED)
    @rule()
    def build_index(self) -> None:
        self.workspace.build_index()

    @precondition(lambda self: self.workspace.has_index)
    @rule()
    def compact_index(self) -> None:
        self.workspace.compact_index()

    @rule()
    def reopen(self) -> None:
        self.workspace.close()
        self.workspace = Workspace.open(self.path)

    @rule()
    def save_and_open_alongside(self) -> None:
        """Save without closing; a second workspace opened from the
        directory must serve the model's answers, then it closes and the
        first carries on."""
        self.workspace.save()
        second = Workspace.open(self.path)
        try:
            self._check_answers(second)
            self._check_doctor(second)
        finally:
            second.close()

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    @invariant()
    def answers_match_the_model(self) -> None:
        self._check_answers(self.workspace)

    @invariant()
    def doctor_is_healthy(self) -> None:
        self._check_doctor(self.workspace)

    def _check_answers(self, workspace: Workspace) -> None:
        assert workspace.identifiers == [_name(p) for p in self.roster]
        for query_index, query in enumerate(QUERIES):
            row = self.distances[query_index]
            expected = sorted(
                range(len(self.roster)),
                key=lambda rank: (row[self.roster[rank]], rank),
            )[:K]
            exact = workspace.query(query, K, mode="exact")
            assert exact.ids == tuple(
                _name(self.roster[rank]) for rank in expected
            )
            assert [np.float64(d).tobytes() for d in exact.distances] == [
                np.float64(row[self.roster[rank]]).tobytes()
                for rank in expected
            ]
            if workspace.has_index:
                indexed = workspace.query(
                    query, K, mode="indexed", candidates=len(self.roster)
                )
                assert indexed.ids == exact.ids
                assert [np.float64(d).tobytes() for d in indexed.distances] == [
                    np.float64(d).tobytes() for d in exact.distances
                ]

    @staticmethod
    def _check_doctor(workspace: Workspace) -> None:
        report = run_doctor(workspace, probe=False)
        assert report.healthy, [c.to_dict() for c in report.checks]


class _FixedBandMachine(_WorkspaceMachine):
    constraint = "fc,fw"


class _AdaptiveMachine(_WorkspaceMachine):
    constraint = "ac,aw"


_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestFixedBandWorkspace = _FixedBandMachine.TestCase
TestFixedBandWorkspace.settings = settings(
    max_examples=40, stateful_step_count=15, **_SETTINGS
)

TestAdaptiveWorkspace = _AdaptiveMachine.TestCase
TestAdaptiveWorkspace.settings = settings(
    max_examples=20, stateful_step_count=12, **_SETTINGS
)
