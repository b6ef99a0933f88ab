"""The network service tier: wire schema, HTTP server, client, sharding.

The contract under test is ISSUE 10's redesigned query API: one
versioned wire payload (``repro-query-result``) shared by
``WorkspaceQueryResult.to_dict/from_dict``, the ``repro serve`` HTTP
front end and the ``RemoteWorkspace`` client — with HTTP results
bit-identical to in-process queries at every shard count, a typed 4xx
error contract, admission control, and degraded (partial) reads when a
shard dies.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import time
from unittest import mock

import pytest

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.datasets.synthetic import make_gun_like
from repro.exceptions import (
    DatasetError,
    RemoteWorkspaceError,
    ValidationError,
    WorkspaceError,
)
from repro.server import http as wire
from repro.server import (
    PROMETHEUS_CONTENT_TYPE,
    RemoteWorkspace,
    ShardedWorkspace,
    WorkspaceServer,
    shard_of,
    split_workspace,
)
from repro.service import EngineConfig, IndexConfig, Workspace, WorkspaceConfig
from repro.service.workspace import (
    WIRE_FORMAT,
    WIRE_VERSION,
    WorkspaceQueryResult,
)


NUM_SERIES = 24


def _config() -> WorkspaceConfig:
    return WorkspaceConfig(
        sdtw=SDTWConfig(descriptor=DescriptorConfig(num_bins=16)),
        engine=EngineConfig(constraint="ac,aw", backend="vectorized"),
        index=IndexConfig(num_codewords=4, candidate_budget=NUM_SERIES,
                          seed=7),
    )


@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=NUM_SERIES, seed=5)


@pytest.fixture(scope="module")
def workspace(dataset):
    ws = Workspace.in_memory(_config())
    ws.add_dataset(dataset)
    ws.build_index()
    return ws


@pytest.fixture(scope="module")
def server(workspace):
    with WorkspaceServer(workspace, port=0) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    with RemoteWorkspace(server.host, server.port) as remote:
        yield remote


def assert_bit_identical(remote, local):
    """The full bit-identity contract between two query results."""
    assert remote.ids == local.ids
    assert remote.indices == local.indices
    assert remote.distances == local.distances  # exact ==, not approx
    assert remote.labels == local.labels
    assert remote.mode == local.mode
    assert remote.k == local.k
    assert remote.collection_size == local.collection_size


def raw_request(server, method, path, body=None, headers=None):
    """One raw HTTP exchange, bypassing RemoteWorkspace's error mapping."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=dict(headers or {}))
        response = conn.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# Wire schema
# ---------------------------------------------------------------------- #
class TestWireSchema:
    def test_round_trips_through_json_bit_identically(
            self, workspace, dataset):
        result = workspace.query(dataset[0].values, 3, mode="exact")
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = type(result).from_dict(payload)
        assert_bit_identical(rebuilt, result)
        assert rebuilt.requested_mode == result.requested_mode
        assert rebuilt.snapshot_version == result.snapshot_version
        assert rebuilt.candidates_generated == result.candidates_generated
        assert rebuilt.stats.to_dict() == result.stats.to_dict()
        assert rebuilt.timings() == result.timings()

    def test_payload_declares_format_and_version(self, workspace, dataset):
        payload = workspace.query(dataset[0].values, 1).to_dict()
        assert payload["format"] == WIRE_FORMAT
        assert payload["version"] == WIRE_VERSION

    def test_include_trace_false_strips_the_trace(self, workspace, dataset):
        result = workspace.query(dataset[0].values, 1, mode="exact")
        assert result.to_dict(include_trace=True)["trace"] is not None
        assert result.to_dict(include_trace=False)["trace"] is None

    def test_sharded_fields_round_trip(self, workspace, dataset):
        sharded = split_workspace(workspace, 2)
        result = sharded.query(dataset[0].values, 3, mode="exact")
        rebuilt = type(result).from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert rebuilt.shard_versions == result.shard_versions
        assert rebuilt.failed_shards == result.failed_shards == ()
        sharded.close()

    def test_rejects_foreign_format(self, workspace, dataset):
        payload = workspace.query(dataset[0].values, 1).to_dict()
        payload["format"] = "something-else"
        with pytest.raises(ValidationError):
            type(workspace.query(dataset[0].values, 1)).from_dict(payload)

    def test_rejects_newer_wire_version(self, workspace, dataset):
        result = workspace.query(dataset[0].values, 1)
        payload = result.to_dict()
        payload["version"] = WIRE_VERSION + 1
        with pytest.raises(ValidationError):
            type(result).from_dict(payload)

    def test_ignores_unknown_additive_keys(self, workspace, dataset):
        result = workspace.query(dataset[0].values, 2, mode="exact")
        payload = result.to_dict()
        payload["future_extension"] = {"anything": True}
        # Older servers still send the queue wait of the retired batcher.
        payload["timings"]["queue_wait_seconds"] = 0.0002
        rebuilt = type(result).from_dict(payload)
        assert_bit_identical(rebuilt, result)
        assert rebuilt.timings() == result.timings()

    def test_rejects_non_object_payloads(self, workspace, dataset):
        result = workspace.query(dataset[0].values, 1)
        with pytest.raises(ValidationError):
            type(result).from_dict(["not", "an", "object"])


# ---------------------------------------------------------------------- #
# HTTP vs in-process bit-identity
# ---------------------------------------------------------------------- #
class TestHTTPBitIdentity:
    @pytest.mark.parametrize("mode", ["exact", "indexed"])
    def test_http_matches_in_process(self, workspace, client, dataset, mode):
        for ts in (dataset[0], dataset[7], dataset[19]):
            local = workspace.query(ts.values, 5, mode=mode,
                                    exclude_identifier=ts.identifier)
            remote = client.query(ts.values, 5, mode=mode,
                                  exclude_identifier=ts.identifier)
            assert_bit_identical(remote, local)
            assert remote.snapshot_version == local.snapshot_version

    def test_trace_attaches_over_the_wire_on_request(self, client, dataset):
        traced = client.query(dataset[0].values, 2, mode="exact", trace=True)
        assert traced.trace is not None
        assert traced.trace.stages
        untraced = client.query(dataset[0].values, 2, mode="exact")
        assert untraced.trace is None

    def test_concurrent_clients_stay_bit_identical(
            self, workspace, server, dataset):
        queries = [dataset[i] for i in range(8)]
        locals_ = [
            workspace.query(ts.values, 4, mode="exact",
                            exclude_identifier=ts.identifier)
            for ts in queries
        ]
        failures = []

        def worker(slot, ts):
            try:
                with RemoteWorkspace(server.host, server.port) as remote:
                    for _ in range(3):
                        result = remote.query(
                            ts.values, 4, mode="exact",
                            exclude_identifier=ts.identifier)
                        assert_bit_identical(result, locals_[slot])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot, ts))
            for slot, ts in enumerate(queries)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]


# ---------------------------------------------------------------------- #
# Sharded scatter-gather, in-process and over HTTP
# ---------------------------------------------------------------------- #
class TestSharding:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_in_process_scatter_gather_is_bit_identical(
            self, workspace, dataset, num_shards):
        sharded = split_workspace(workspace, num_shards)
        try:
            for ts in (dataset[3], dataset[11]):
                local = workspace.query(ts.values, 5, mode="exact",
                                        exclude_identifier=ts.identifier)
                merged = sharded.query(ts.values, 5, mode="exact",
                                       exclude_identifier=ts.identifier)
                assert_bit_identical(merged, local)
        finally:
            sharded.close()

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_http_scatter_gather_is_bit_identical(
            self, workspace, dataset, num_shards):
        sharded = split_workspace(workspace, num_shards)
        try:
            with WorkspaceServer(sharded, port=0) as srv, \
                    RemoteWorkspace(srv.host, srv.port) as remote:
                for mode in ("exact", "indexed"):
                    local = workspace.query(
                        dataset[2].values, 5, mode=mode,
                        candidates=NUM_SERIES,
                        exclude_identifier=dataset[2].identifier)
                    over_http = remote.query(
                        dataset[2].values, 5, mode=mode,
                        candidates=NUM_SERIES,
                        exclude_identifier=dataset[2].identifier)
                    assert_bit_identical(over_http, local)
        finally:
            sharded.close()

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_result_reports_per_shard_snapshot_versions(
            self, workspace, dataset, num_shards):
        sharded = split_workspace(workspace, num_shards)
        try:
            result = sharded.query(dataset[0].values, 3, mode="exact")
            populated = {
                shard_of(ts.identifier, num_shards) for ts in dataset
            }
            assert result.shard_versions is not None
            assert len(result.shard_versions) == len(populated)
            for name, version in result.shard_versions:
                assert re.fullmatch(r"shard-\d+", name)
                assert version >= 1
        finally:
            sharded.close()

    def test_split_of_an_opened_workspace_extracts_nothing(
            self, workspace, dataset, tmp_path):
        # An opened workspace holds every series' features; the shards
        # take them over, so neither the split nor the shards' index
        # builds extract a series again.
        path = tmp_path / "source"
        with Workspace.create(path, _config()) as created:
            created.add_dataset(dataset)
            created.build_index()
        source = Workspace.open(path)
        with mock.patch(
            "repro.core.features.extract_feature_sets",
            side_effect=AssertionError("a split re-extracted a series"),
        ):
            sharded = split_workspace(source, 2)
        # The reference re-extracts: each shard gets raw values only.
        shards = [Workspace(source.config) for _ in range(2)]
        for identifier, label in zip(source.identifiers, source.labels):
            shards[shard_of(identifier, 2)].add(
                source.series_of(identifier), identifier=identifier, label=label)
        reference = ShardedWorkspace(shards, roster=source.identifiers)
        reference.build_index()
        try:
            for ts in dataset:
                for mode in ("exact", "indexed"):
                    assert_bit_identical(
                        sharded.query(ts.values, 3, mode=mode, candidates=8),
                        reference.query(ts.values, 3, mode=mode, candidates=8),
                    )
        finally:
            sharded.close()
            reference.close()
            source.close()

    def test_deferred_features_stay_deferred_in_the_shards(self, dataset):
        source = Workspace.in_memory(_config())
        source.add_dataset(dataset)
        sharded = split_workspace(source, 2, build_index=False)
        try:
            for shard in sharded._shards:
                assert shard.identifiers
                assert not any(shard._store.has_features(identifier)
                               for identifier in shard.identifiers)
        finally:
            sharded.close()

    def test_placement_is_stable(self):
        assert shard_of("series-00001", 4) == shard_of("series-00001", 4)
        with pytest.raises(ValidationError):
            shard_of("x", 0)


def _scatter_threads(thread_mock):
    """Names of the fan-out threads a patched ``threading.Thread`` saw."""
    names = [call.kwargs.get("name", "") for call in thread_mock.call_args_list]
    return [name for name in names if name.startswith("repro-scatter-")]


class TestInlineFanOut:
    """In-process shards answer on the calling thread, one after another;
    only ``RemoteWorkspace`` shards get a thread."""

    def test_in_process_shards_start_no_thread(self, workspace, dataset):
        sharded = split_workspace(workspace, 2)
        try:
            with mock.patch.object(threading, "Thread", wraps=threading.Thread) as thread:
                merged = sharded.query(dataset[3].values, 5, mode="exact")
            thread.assert_not_called()
            assert_bit_identical(merged, workspace.query(dataset[3].values, 5, mode="exact"))
        finally:
            sharded.close()

    def test_stage_walls_and_trace_add_up(self, workspace, dataset):
        sharded = split_workspace(workspace, 2)
        answers = []

        def capture(shard):
            original = shard.query

            def query(*args, **kwargs):
                answers.append(original(*args, **kwargs))
                return answers[-1]
            return query

        first, second = sharded._shards
        try:
            with mock.patch.object(first, "query", capture(first)), \
                    mock.patch.object(second, "query", capture(second)):
                merged = sharded.query(dataset[5].values, 5, mode="indexed",
                                       candidates=NUM_SERIES)
        finally:
            sharded.close()
        assert len(answers) == 2
        assert all(answer.generation_seconds > 0 for answer in answers)
        assert merged.generation_seconds == sum(a.generation_seconds for a in answers)
        assert merged.rerank_seconds == sum(a.rerank_seconds for a in answers)
        trace = merged.trace
        assert [stage.name for stage in trace.stages[:2]] == [
            "shard:shard-0", "shard:shard-1"
        ]
        assert sum(stage.seconds for stage in trace.stages) == pytest.approx(
            trace.total_seconds, rel=1e-12
        )

    def test_mixed_in_process_and_remote_shards_are_bit_identical(
            self, workspace, dataset):
        shards = [Workspace.in_memory(_config()) for _ in range(2)]
        for ts in dataset:
            shards[shard_of(ts.identifier, 2)].add(
                ts.values, identifier=ts.identifier, label=ts.label)
        for shard in shards:
            shard.build_index()
        roster = [ts.identifier for ts in dataset]
        with WorkspaceServer(shards[1], port=0) as srv, \
                RemoteWorkspace(srv.host, srv.port) as remote:
            mixed = ShardedWorkspace([shards[0], remote], roster=roster)
            with mock.patch.object(threading, "Thread", wraps=threading.Thread) as thread:
                for mode in ("exact", "indexed"):
                    local = workspace.query(
                        dataset[2].values, 5, mode=mode, candidates=NUM_SERIES,
                        exclude_identifier=dataset[2].identifier)
                    merged = mixed.query(
                        dataset[2].values, 5, mode=mode, candidates=NUM_SERIES,
                        exclude_identifier=dataset[2].identifier)
                    assert_bit_identical(merged, local)
                    assert merged.failed_shards == ()
            assert _scatter_threads(thread) == ["repro-scatter-shard-1"] * 2


# ---------------------------------------------------------------------- #
# Error contract
# ---------------------------------------------------------------------- #
class TestErrorContract:
    def test_malformed_json_is_400_protocol_error(self, server):
        status, _, body = raw_request(
            server, "POST", "/query", body=b"{not json",
            headers={"Content-Type": "application/json"})
        assert status == 400
        error = json.loads(body)["error"]
        assert error["type"] == "ProtocolError"
        assert error["status"] == 400

    def test_missing_values_maps_to_validation_error(self, client):
        with pytest.raises(ValidationError):
            client.query([], 3)

    def test_non_numeric_k_is_400(self, server, workspace, dataset):
        """Malformed fields are a typed 400 on a plain and a 2-shard
        server, and the 2-shard one counts no shard error for them."""
        values = [float(v) for v in dataset[0].values]
        malformed = [
            ({"values": [1.0, 2.0], "k": "three"}, "ProtocolError"),
            ({"values": values, "candidates": True}, "ProtocolError"),
            ({"values": values, "exclude_identifier": ["x"]}, "ProtocolError"),
            ({"values": values, "exclude_identifier": 5}, "ProtocolError"),
            ({"values": values, "trace": "no"}, "ProtocolError"),
            ({"values": ["a", "b"], "k": 3}, "ValidationError"),
        ]
        well_formed = {
            "values": values, "k": 3, "candidates": 6, "trace": True,
            "exclude_identifier": dataset[0].identifier,
        }
        headers = {"Content-Type": "application/json"}
        sharded = split_workspace(workspace, 2)
        with WorkspaceServer(sharded, port=0) as two_shard:
            for srv in (server, two_shard):
                for payload, error_type in malformed:
                    status, _, body = raw_request(
                        srv, "POST", "/query", body=json.dumps(payload),
                        headers=headers)
                    assert status == 400, (payload, body)
                    error = json.loads(body)["error"]
                    assert error["type"] == error_type, (payload, error)
                    assert error["status"] == 400
                status, _, body = raw_request(
                    srv, "POST", "/query", body=json.dumps(well_formed),
                    headers=headers)
                assert status == 200, body
                answer = json.loads(body)
                assert answer["trace"] is not None
                assert dataset[0].identifier not in [
                    hit["identifier"] for hit in answer["hits"]
                ]
        counters = sharded.metrics.to_dict()["counters"]
        assert not any(counters["repro_shard_errors_total"]["values"].values())
        sharded.close()

    def test_removed_rank_mode_is_400_and_tfidf_still_answers(
        self, server, workspace, dataset
    ):
        values = [float(v) for v in dataset[0].values]
        for rank_mode in ("pq", "bogus", 3):
            status, _, body = raw_request(
                server, "POST", "/query",
                body=json.dumps({"values": values, "rank_mode": rank_mode}),
                headers={"Content-Type": "application/json"})
            assert status == 400
            error = json.loads(body)["error"]
            assert error["type"] == "ProtocolError"
            assert "removed" in error["message"]
        local = workspace.query(dataset[0].values, 3, mode="indexed")
        for rank_mode in (None, "tfidf"):
            status, _, body = raw_request(
                server, "POST", "/query",
                body=json.dumps({"values": values, "k": 3, "mode": "indexed",
                                 "rank_mode": rank_mode}),
                headers={"Content-Type": "application/json"})
            assert status == 200
            remote = WorkspaceQueryResult.from_dict(json.loads(body))
            assert_bit_identical(remote, local)

    def test_unknown_route_is_404(self, server):
        status, _, body = raw_request(server, "GET", "/no-such-route")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "NotFound"

    def test_wrong_method_is_405_with_allow_header(self, server):
        status, headers, body = raw_request(server, "GET", "/query")
        assert status == 405
        assert headers.get("Allow") == "POST"
        assert json.loads(body)["error"]["type"] == "MethodNotAllowed"

    def test_remove_of_unknown_identifier_keeps_its_type(self, client):
        with pytest.raises(DatasetError):
            client.remove("never-stored")

    def test_duplicate_identifier_is_validation_error(
            self, client, dataset):
        with pytest.raises(ValidationError):
            client.add([1.0, 2.0, 3.0], identifier=dataset[0].identifier)

    def test_oversized_body_is_413(self, workspace):
        with WorkspaceServer(workspace, port=0, max_body_bytes=256) as srv:
            status, _, body = raw_request(
                srv, "POST", "/query",
                body=json.dumps({"values": [0.5] * 4096}),
                headers={"Content-Type": "application/json"})
            assert status == 413
            assert json.loads(body)["error"]["type"] == "ProtocolError"

    def test_query_against_empty_workspace_is_workspace_error(self):
        empty = Workspace.in_memory(_config())
        with WorkspaceServer(empty, port=0) as srv, \
                RemoteWorkspace(srv.host, srv.port) as remote:
            with pytest.raises(WorkspaceError):
                remote.query([1.0, 2.0, 3.0], 1)

    def test_connection_refused_is_remote_workspace_error(self, server):
        dead = RemoteWorkspace(server.host, 1, timeout=2.0)
        with pytest.raises(RemoteWorkspaceError):
            dead.stats()


# ---------------------------------------------------------------------- #
# Mutations over the wire
# ---------------------------------------------------------------------- #
class TestRemoteMutations:
    def test_add_query_remove_round_trip(self, dataset):
        ws = Workspace.in_memory(_config())
        ws.add_dataset(dataset)
        with WorkspaceServer(ws, port=0) as srv, \
                RemoteWorkspace(srv.host, srv.port) as remote:
            before = remote.query(dataset[1].values, 1).snapshot_version
            stored = remote.add(list(dataset[1].values),
                                identifier="wire-added", label=3)
            assert stored == "wire-added"
            assert len(remote) == len(dataset) + 1
            assert "wire-added" in remote.identifiers
            result = remote.query(dataset[1].values, 2, mode="exact")
            assert "wire-added" in result.ids
            assert result.snapshot_version > before
            remote.remove("wire-added")
            assert len(remote) == len(dataset)

    def test_stats_include_server_counters(self, client):
        stats = client.stats()
        assert stats["num_series"] == NUM_SERIES
        server_stats = stats["server"]
        assert server_stats["max_inflight"] >= 1
        assert server_stats["requests_served"] >= 1

    def test_healthz_reports_ok(self, client):
        report = client.health()
        assert report["status"] == "ok"


# ---------------------------------------------------------------------- #
# Degraded reads (kill one shard)
# ---------------------------------------------------------------------- #
class TestDegradedReads:
    def test_partial_scatter_gather_after_shard_death(self, dataset):
        shards = [Workspace.in_memory(_config()) for _ in range(2)]
        for ts in dataset:
            shards[shard_of(ts.identifier, 2)].add(
                ts.values, identifier=ts.identifier, label=ts.label)
        roster = [ts.identifier for ts in dataset]
        servers = [WorkspaceServer(shard, port=0).start()
                   for shard in shards]
        try:
            clients = [
                RemoteWorkspace(srv.host, srv.port, timeout=5.0)
                for srv in servers
            ]
            partial = ShardedWorkspace(clients, roster=roster,
                                       allow_partial=True)
            strict = ShardedWorkspace(
                [RemoteWorkspace(srv.host, srv.port, timeout=5.0)
                 for srv in servers],
                roster=roster)
            complete = partial.query(dataset[0].values, 5, mode="exact")
            assert complete.failed_shards == ()

            servers[1].stop()

            survivors = {
                ts.identifier for ts in dataset
                if shard_of(ts.identifier, 2) == 0
            }
            degraded = partial.query(dataset[0].values, 5, mode="exact")
            assert degraded.failed_shards == ("shard-1",)
            assert degraded.hits
            assert set(degraded.ids) <= survivors
            assert degraded.collection_size == len(survivors)

            health = partial.health()
            assert health["status"] == "degraded"
            assert health["healthy_shards"] == 1

            with pytest.raises(WorkspaceError):
                strict.query(dataset[0].values, 5, mode="exact")
        finally:
            for srv in servers:
                srv.stop()

    @pytest.mark.parametrize("allow_partial", (True, False))
    def test_interrupt_in_an_in_process_shard_is_not_a_shard_failure(
            self, workspace, dataset, allow_partial):
        sharded = split_workspace(workspace, 2, allow_partial=allow_partial)
        try:
            with mock.patch.object(sharded._shards[1], "query",
                                   side_effect=KeyboardInterrupt):
                with pytest.raises(KeyboardInterrupt):
                    sharded.query(dataset[0].values, 5, mode="exact")
        finally:
            sharded.close()

    def test_interrupt_in_a_remote_shard_is_raised_after_the_join(
            self, server, dataset):
        local = Workspace.in_memory(_config())
        local.add(dataset[0].values * 2.0, identifier="local-0")
        with RemoteWorkspace(server.host, server.port) as remote:
            sharded = ShardedWorkspace([local, remote], allow_partial=True)
            with mock.patch.object(remote, "query", side_effect=KeyboardInterrupt):
                with pytest.raises(KeyboardInterrupt):
                    sharded.query(dataset[1].values, 3, mode="exact")
            assert len(sharded.query(dataset[1].values, 3, mode="exact").hits) == 3


# ---------------------------------------------------------------------- #
# Admission control
# ---------------------------------------------------------------------- #
class _GatedWorkspace:
    """Duck-typed workspace whose query parks until released — makes the
    server's 503 overload path deterministic."""

    def __init__(self, template_result):
        self._template = template_result
        self.entered = threading.Event()
        self.release = threading.Event()

    def query(self, values, k=None, **kwargs):
        self.entered.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("gate never released")
        return self._template

    def stats(self):
        return {"num_series": 1}


class TestAdmissionControl:
    def test_overload_is_refused_with_503(self, workspace, dataset):
        template = workspace.query(dataset[0].values, 1, mode="exact")
        gated = _GatedWorkspace(template)
        with WorkspaceServer(gated, port=0, max_inflight=1,
                             max_pending=0) as srv:
            first_done = []

            def occupant():
                with RemoteWorkspace(srv.host, srv.port) as remote:
                    first_done.append(remote.query([1.0, 2.0], 1))

            thread = threading.Thread(target=occupant)
            thread.start()
            try:
                assert gated.entered.wait(timeout=10)
                with RemoteWorkspace(srv.host, srv.port) as remote:
                    with pytest.raises(RemoteWorkspaceError):
                        remote.query([1.0, 2.0], 1)
            finally:
                gated.release.set()
                thread.join(timeout=10)
            assert first_done and first_done[0].ids == template.ids
            assert srv.server_stats()["refused_total"] >= 1


# ---------------------------------------------------------------------- #
# Bounded reads
# ---------------------------------------------------------------------- #
def _wait_for_close(sock, limit_seconds=10.0):
    """Seconds until the server closes *sock*, reading what it sends."""
    started = time.perf_counter()
    sock.settimeout(limit_seconds)
    while sock.recv(4096):
        pass
    return time.perf_counter() - started


class TestBoundedReads:
    """A client holds a connection only as long as the read deadlines
    allow; the deadlines are patched small so the tests run fast."""

    def test_stalled_half_request_line_is_closed(self, workspace, monkeypatch):
        monkeypatch.setattr(wire, "REQUEST_TIMEOUT_SECONDS", 0.3)
        with WorkspaceServer(workspace, port=0) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
                sock.sendall(b"GET /heal")
                waited = _wait_for_close(sock)
            status, _, _ = raw_request(srv, "GET", "/healthz")
        assert 0.2 <= waited < 5.0
        assert status == 200

    def test_trickled_request_gets_one_deadline_not_one_per_read(
        self, workspace, monkeypatch
    ):
        monkeypatch.setattr(wire, "REQUEST_TIMEOUT_SECONDS", 0.5)
        with WorkspaceServer(workspace, port=0) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                started = time.perf_counter()
                sock.settimeout(0.05)
                closed = False
                # One header byte every 50 ms: every read completes, but
                # the request as a whole never does.
                while not closed and time.perf_counter() - started < 10.0:
                    try:
                        sock.sendall(b"x")
                        closed = sock.recv(4096) == b""
                    except socket.timeout:
                        continue
                    except OSError:
                        closed = True
                waited = time.perf_counter() - started
        assert closed
        assert 0.4 <= waited < 5.0

    def test_idle_keep_alive_connection_is_closed(self, workspace, monkeypatch):
        # Unpatched, the idle timeout outlasts the gaps between a pooled
        # client's ops.
        assert wire.IDLE_TIMEOUT_SECONDS >= 60
        monkeypatch.setattr(wire, "IDLE_TIMEOUT_SECONDS", 0.3)
        with WorkspaceServer(workspace, port=0) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                waited = _wait_for_close(conn.sock)
            finally:
                conn.close()
        assert 0.2 <= waited < 5.0


def _exchange(sock):
    """One keep-alive ``GET /healthz`` on a raw socket; returns the status."""
    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, "server closed the connection"
        data += chunk
    head, body = data.split(b"\r\n\r\n", 1)
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    while len(body) < length:
        body += sock.recv(4096)
    return int(head.split(b" ", 2)[1])


def _wait_until(predicate, limit_seconds=10.0):
    deadline = time.perf_counter() + limit_seconds
    while not predicate():
        assert time.perf_counter() < deadline, "condition never held"
        time.sleep(0.01)


class TestConnectionCap:
    """Connections past the cap are answered 503 and closed; the cap is
    patched small so the test holds only a few sockets."""

    def test_cap_refuses_extra_and_reuses_freed_slot(self, workspace, monkeypatch):
        monkeypatch.setattr(wire, "MAX_CONNECTIONS", 2)
        with WorkspaceServer(workspace, port=0) as srv:
            address = (srv.host, srv.port)
            held = [socket.create_connection(address, timeout=10) for _ in range(2)]
            try:
                assert [_exchange(sock) for sock in held] == [200, 200]
                with socket.create_connection(address, timeout=10) as extra:
                    refused = b""
                    while chunk := extra.recv(4096):
                        refused += chunk
                head = refused.split(b"\r\n\r\n", 1)[0]
                assert head.startswith(b"HTTP/1.1 503 ")
                assert b"Connection: close" in head
                # The held connections keep working past the refusal.
                assert [_exchange(sock) for sock in held] == [200, 200]
                stats = srv.server_stats()
                assert stats["open_connections"] == 2
                assert stats["connections_refused_total"] == 1
                held.pop().close()
                _wait_until(lambda: srv.server_stats()["open_connections"] == 1)
                # The freed slot takes a new connection.
                status, _, body = raw_request(srv, "GET", "/stats")
                assert status == 200
                assert json.loads(body)["server"]["connections_refused_total"] == 1
                _wait_until(lambda: srv.server_stats()["open_connections"] == 1)
                status, _, body = raw_request(srv, "GET", "/metrics")
                assert status == 200
                assert "repro_server_connections_refused_total 1" in body.decode()
            finally:
                for sock in held:
                    sock.close()


# ---------------------------------------------------------------------- #
# Metrics exposition
# ---------------------------------------------------------------------- #
_METRIC_LINE = re.compile(
    r"[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+")


class TestMetricsExposition:
    def test_metrics_parse_as_prometheus_0_0_4(self, client, server):
        text = client.metrics_prometheus()
        assert text
        for line in text.splitlines():
            if not line or line.startswith(("# HELP ", "# TYPE ")):
                continue
            assert _METRIC_LINE.fullmatch(line), line
        _, headers, _ = raw_request(server, "GET", "/metrics")
        assert headers.get("Content-Type") == PROMETHEUS_CONTENT_TYPE


# ---------------------------------------------------------------------- #
# CLI flag unification
# ---------------------------------------------------------------------- #
class TestCLIUnification:
    """serve / workspace query / engine share one --mode/--k/--trace
    flag family (a single argparse parent supplies all three)."""

    SPELLINGS = [
        ["serve", "some-dir"],
        ["workspace", "query", "some-dir"],
        ["engine", "gun-small"],
    ]

    def test_every_surface_accepts_the_shared_flags(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        for spelling in self.SPELLINGS:
            args = parser.parse_args(
                spelling + ["--mode", "indexed", "--k", "3", "--trace"])
            assert args.mode == "indexed"
            assert args.k == 3
            assert args.trace is True

    def test_surface_specific_defaults(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        serve = parser.parse_args(["serve", "dir"])
        assert serve.mode == "auto" and serve.k is None
        query = parser.parse_args(["workspace", "query", "dir"])
        assert query.mode == "auto" and query.k == 5
        engine = parser.parse_args(["engine", "gun-small"])
        assert engine.mode == "exact"

    def test_mode_choices_reject_drift(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        for spelling in self.SPELLINGS:
            with pytest.raises(SystemExit):
                parser.parse_args(spelling + ["--mode", "turbo"])
