"""Tests for the diagnostics stack: structured event log, flight
recorder, slow-query capture, sampling profiler, and workspace doctor."""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

import repro.service.workspace as workspace_module
from repro.exceptions import WorkspaceError
from repro.service import (
    IndexConfig,
    ServingConfig,
    Workspace,
    WorkspaceConfig,
    run_doctor,
)
from repro.telemetry import (
    NULL_EVENT_LOG,
    EventLog,
    SamplingProfiler,
    json_safe,
)


def _series(phase: float, length: int = 96) -> np.ndarray:
    return np.sin(np.linspace(0.0, 4.0 * np.pi, length) - phase)


def _small_config(**serving_kwargs) -> WorkspaceConfig:
    """A workspace configuration sized for fast tests."""
    return WorkspaceConfig(
        index=IndexConfig(
            num_codewords=16, num_shards=2, candidate_budget=8,
            max_delta_shards=4,
        ),
        serving=ServingConfig(**serving_kwargs),
        default_k=3,
    )


def _populate(workspace: Workspace, count: int = 8) -> list:
    return [
        workspace.add(_series(0.25 * index), identifier=f"s{index:02d}")
        for index in range(count)
    ]


class TestJsonSafe:
    def test_scalars_pass_through(self):
        assert json_safe(3) == 3
        assert json_safe(0.5) == 0.5
        assert json_safe(True) is True
        assert json_safe(None) is None
        assert json_safe("x") == "x"

    def test_numpy_scalars_unwrap(self):
        assert json_safe(np.int64(7)) == 7
        assert json_safe(np.float64(1.5)) == 1.5
        assert isinstance(json_safe(np.float32(2.0)), float)

    def test_containers_sanitised_recursively(self):
        value = {"a": np.int32(1), "b": [np.float64(2.0), {"c": (3, 4)}]}
        assert json_safe(value) == {"a": 1, "b": [2.0, {"c": [3, 4]}]}

    def test_unknown_objects_stringify(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert json_safe(Opaque()) == "<opaque>"
        json.dumps(json_safe({"x": Opaque(), "y": {1, 2}}))


class TestEventLog:
    def test_ring_is_bounded_but_total_keeps_counting(self):
        log = EventLog(capacity=4)
        for index in range(10):
            log.emit("test", f"event-{index}")
        assert len(log) == 4
        assert log.events_total == 10
        names = [event.name for event in log.snapshot()]
        assert names == ["event-6", "event-7", "event-8", "event-9"]

    def test_snapshot_filters_component_level_and_limit(self):
        log = EventLog(capacity=16)
        log.emit("index", "compaction")
        log.emit("workspace", "saved")
        log.emit("index", "marked_stale", level="warn")
        log.emit("index", "oops", level="error")

        assert [e.name for e in log.snapshot(component="index")] == [
            "compaction", "marked_stale", "oops"
        ]
        # level is a floor: warn keeps warn and error.
        assert [e.name for e in log.snapshot(level="warn")] == [
            "marked_stale", "oops"
        ]
        # limit keeps the most recent N after filtering.
        assert [e.name for e in log.snapshot(component="index", limit=1)] == [
            "oops"
        ]

    def test_fields_are_json_safe_at_emit_time(self):
        log = EventLog(capacity=4)
        log.emit("test", "typed", count=np.int64(3), values=(1, 2))
        event = log.snapshot()[-1]
        assert event.fields == {"count": 3, "values": [1, 2]}
        json.dumps(event.to_dict())

    def test_unknown_level_coerces_to_info(self):
        log = EventLog(capacity=4)
        log.emit("test", "weird", level="fatal")
        assert log.snapshot()[-1].level == "info"

    def test_file_sink_writes_parseable_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, path=str(path))
        for index in range(6):
            log.emit("test", f"event-{index}", index=index)
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        records = [json.loads(line) for line in lines]
        assert records[0]["name"] == "event-0"
        assert records[-1]["fields"]["index"] == 5

    def test_file_sink_rotates_once_over_max_bytes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, path=str(path), max_bytes=1024)
        payload = "x" * 64
        for index in range(40):
            log.emit("test", "fat", payload=payload, index=index)
        rotated = tmp_path / "events.jsonl.1"
        assert rotated.exists()
        # Both generations still parse line by line.
        for target in (path, rotated):
            for line in target.read_text().splitlines():
                json.loads(line)
        assert log.dropped_writes == 0

    def test_unwritable_sink_counts_drops_instead_of_raising(self, tmp_path):
        log = EventLog(capacity=4, path=str(tmp_path / "nope" / "events.jsonl"))
        log.emit("test", "lost")
        assert log.dropped_writes == 1
        assert len(log) == 1  # the ring still recorded it

    def test_concurrent_emission_is_lossless(self):
        log = EventLog(capacity=4096)
        def worker(slot):
            for index in range(100):
                log.emit("thread", "tick", slot=slot, index=index)
        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert log.events_total == 800
        assert len(log) == 800

    def test_null_event_log_is_inert(self):
        NULL_EVENT_LOG.emit("test", "ignored", level="error")
        assert NULL_EVENT_LOG.snapshot() == []
        assert NULL_EVENT_LOG.to_dicts() == []
        assert len(NULL_EVENT_LOG) == 0
        assert not NULL_EVENT_LOG.enabled


class TestWorkspaceEvents:
    def test_state_transitions_emit_events(self):
        workspace = Workspace(_small_config())
        identifiers = _populate(workspace, 6)
        workspace.build_index()
        workspace.query(_series(0.1))
        workspace.remove(identifiers[0])
        workspace.query(_series(0.1))

        names = {
            (event["component"], event["name"])
            for event in workspace.recent_events()
        }
        assert ("workspace", "series_added") in names
        assert ("workspace", "series_removed") in names
        assert ("index", "rebuilt") in names
        assert ("index", "tombstone") in names
        assert ("snapshot", "rebuilt") in names
        # Plain queries stay off the event log: nothing but state
        # transitions and slow queries may emit.
        assert not any(name == "slow_query" for _, name in names)

    def test_incremental_add_emits_delta_event(self):
        workspace = Workspace(_small_config())
        _populate(workspace, 6)
        workspace.build_index()
        workspace.add(_series(9.0), identifier="late")
        names = [event["name"] for event in workspace.recent_events()]
        assert "delta_appended" in names

    def test_telemetry_off_means_null_log(self):
        workspace = Workspace(_small_config(telemetry=False))
        _populate(workspace, 3)
        assert workspace.events is NULL_EVENT_LOG
        assert workspace.recent_events() == []

    def test_path_backed_workspace_persists_events(self, tmp_path):
        target = str(tmp_path / "ws")
        workspace = Workspace.create(target, _small_config())
        _populate(workspace, 4)
        workspace.build_index()
        workspace.save()
        workspace.close()

        events_file = tmp_path / "ws" / "events.jsonl"
        assert events_file.exists()
        records = [
            json.loads(line) for line in events_file.read_text().splitlines()
        ]
        names = [record["name"] for record in records]
        assert "created" in names
        assert "saved" in names
        assert "closed" in names

        with Workspace.open(target) as reopened:
            assert any(
                event["name"] == "opened"
                for event in reopened.recent_events()
            )


class TestFlightRecorder:
    def test_record_round_trips_through_json(self):
        workspace = Workspace(_small_config())
        _populate(workspace, 4)
        workspace.build_index()
        workspace.query(_series(0.3))
        record = workspace.dump_flight_record(note="checkpoint")
        assert json.loads(json.dumps(record)) == record
        assert record["format"] == "repro-flight-record"
        assert record["note"] == "checkpoint"
        assert record["workspace"]["num_series"] == 4
        assert record["config"]["serving"]["telemetry"] is True
        assert record["events"], "state transitions must be in the record"

    def test_workspace_error_carries_flight_record(self):
        workspace = Workspace(_small_config())
        with pytest.raises(WorkspaceError) as excinfo:
            workspace.query(_series(0.0))
        record = excinfo.value.flight_record
        assert record is not None
        assert record["format"] == "repro-flight-record"
        json.dumps(record)
        # The failure itself is the last error-level event.
        errors = [
            event for event in record["events"]
            if event["level"] == "error"
        ]
        assert errors, record["events"]

    def test_record_works_on_closed_workspace(self):
        workspace = Workspace(_small_config())
        _populate(workspace, 3)
        workspace.close()
        record = workspace.dump_flight_record()
        assert record["workspace"]["closed"] is True
        json.dumps(record)


class TestSlowQueryCapture:
    def test_threshold_zero_captures_every_query_with_full_trace(self):
        workspace = Workspace(_small_config(slow_query_threshold=0.0))
        _populate(workspace, 5)
        for phase in (0.1, 0.2, 0.3):
            workspace.query(_series(phase))
        records = workspace.slow_queries()
        assert len(records) == 3
        for record in records:
            assert record["elapsed_seconds"] >= 0.0
            assert record["trace"] is not None
            assert record["trace"]["stages"], record["trace"]
            assert record["hits"]
            json.dumps(record)

    def test_huge_threshold_captures_nothing(self):
        workspace = Workspace(_small_config(slow_query_threshold=3600.0))
        _populate(workspace, 4)
        workspace.query(_series(0.1))
        assert workspace.slow_queries() == []

    def test_ring_is_bounded_by_slow_query_ring(self, monkeypatch):
        # slow_queries() is a view of the event ring, so the ring bounds it.
        monkeypatch.setattr(workspace_module, "EVENT_RING", 2)
        workspace = Workspace(_small_config(slow_query_threshold=0.0))
        _populate(workspace, 4)
        for phase in (0.1, 0.2, 0.3, 0.4):
            workspace.query(_series(phase))
        assert len(workspace.slow_queries()) == 2

    def test_capture_covers_indexed_and_exact_paths(self):
        workspace = Workspace(_small_config(slow_query_threshold=0.0))
        _populate(workspace, 5)
        workspace.build_index()
        workspace.query(_series(0.1), mode="indexed")
        workspace.query(_series(0.2), mode="exact")
        modes = {record["mode"] for record in workspace.slow_queries()}
        assert modes == {"indexed", "exact"}

    def test_capture_without_telemetry_keeps_record_minus_trace(self):
        workspace = Workspace(
            _small_config(slow_query_threshold=0.0, telemetry=False)
        )
        _populate(workspace, 4)
        workspace.query(_series(0.1))
        records = workspace.slow_queries()
        assert len(records) == 1
        assert records[0]["trace"] is None
        assert records[0]["elapsed_seconds"] >= 0.0

    def test_path_backed_capture_appends_jsonl(self, tmp_path):
        target = str(tmp_path / "ws")
        workspace = Workspace.create(
            target, _small_config(slow_query_threshold=0.0)
        )
        _populate(workspace, 4)
        workspace.query(_series(0.1))
        workspace.query(_series(0.2))
        workspace.close()
        log = tmp_path / "ws" / "events.jsonl"
        records = [
            event["fields"]
            for event in map(json.loads, log.read_text().splitlines())
            if event["name"] == "slow_query"
        ]
        assert len(records) == 2
        for record in records:
            assert record["trace"]["stages"]

    def test_concurrent_capture_is_lossless(self, tmp_path):
        workspace = Workspace.create(
            str(tmp_path / "ws"), _small_config(slow_query_threshold=0.0)
        )
        _populate(workspace, 5)
        errors = []

        def worker(slot):
            try:
                for index in range(10):
                    workspace.query(_series(0.05 * slot + 0.5 * index))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        records = workspace.slow_queries()
        assert len(records) == 80
        for record in records:
            assert {
                "mode", "elapsed_seconds", "threshold_seconds", "hits", "trace",
            } <= record.keys()
            assert record["trace"]["stages"]
        workspace.close()
        lines = (tmp_path / "ws" / "events.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert sum(event["name"] == "slow_query" for event in events) == 80


class TestSamplingProfiler:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_seconds=0.0)

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            SamplingProfiler().stop()

    def test_stop_is_idempotent(self):
        profiler = SamplingProfiler(interval_seconds=0.001).start()
        time.sleep(0.02)
        first = profiler.stop()
        assert profiler.stop() is first

    def test_switch_interval_lowered_while_sampling_then_restored(self):
        before = sys.getswitchinterval()
        profiler = SamplingProfiler(interval_seconds=before / 2).start()
        try:
            assert sys.getswitchinterval() <= before / 2
            time.sleep(0.02)
        finally:
            report = profiler.stop()
        assert sys.getswitchinterval() == before
        assert report.to_dict()["coverage"] == report.coverage > 0.0

    def test_collapsed_output_and_self_table(self):
        def spin(deadline):
            total = 0.0
            while time.perf_counter() < deadline:
                total += sum(idx * idx for idx in range(500))
            return total

        with SamplingProfiler(interval_seconds=0.001) as profiler:
            spin(time.perf_counter() + 0.15)
        report = profiler.stop()
        assert report.num_samples > 0
        collapsed = report.collapsed()
        assert "spin" in collapsed
        for line in collapsed.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert stack
        assert report.self_seconds()
        assert json.loads(json.dumps(report.to_dict()))

    def test_thread_filter_profiles_only_the_chosen_thread(self):
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                sum(idx for idx in range(2000))

        worker = threading.Thread(target=busy, name="busy-worker")
        worker.start()
        try:
            profiler = SamplingProfiler(
                interval_seconds=0.001, threads=[worker.ident]
            ).start()
            time.sleep(0.1)
            report = profiler.stop()
        finally:
            stop.set()
            worker.join()
        assert report.num_samples > 0
        assert report.fraction_matching("busy") == 1.0

    def test_exact_query_attribution_lands_in_engine_frames(self):
        # The acceptance probe: sampling a CPU-bound exact-query loop
        # must attribute >= 80% of samples to the engine / DP / feature
        # pipeline, and the sampler itself must stay under 10% of the
        # window (the documented overhead bound).
        workspace = Workspace(_small_config())
        for index in range(10):
            workspace.add(
                _series(0.2 * index, length=256), identifier=f"p{index:02d}"
            )
        # Built once, outside the window: only the queries are sampled.
        query = _series(0.5, length=256)
        profiler = SamplingProfiler(
            interval_seconds=0.002, threads=[threading.get_ident()]
        ).start()
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            workspace.query(query, mode="exact")
        report = profiler.stop()
        assert report.num_samples >= 20, "window too short to profile"
        assert report.coverage >= 0.25, report.to_dict()["coverage"]
        attribution = report.fraction_matching(
            "repro/engine", "repro/dtw", "repro/core"
        )
        assert attribution >= 0.8, report.collapsed()
        assert report.sampler_overhead < 0.10


class TestDoctor:
    def _churned_workspace(self, tmp_path) -> Workspace:
        """A path-backed workspace that lived: adds, removes, index
        rebuild, incremental deltas, compaction, queries, save."""
        workspace = Workspace.create(
            str(tmp_path / "ws"), _small_config(slow_query_threshold=0.0)
        )
        identifiers = _populate(workspace, 8)
        workspace.build_index()
        for identifier in identifiers[:2]:
            workspace.remove(identifier)
        for index in range(3):
            workspace.add(_series(5.0 + index), identifier=f"late{index}")
        workspace.query(_series(0.4))
        workspace.compact_index()
        workspace.query(_series(0.6), mode="indexed")
        workspace.save()
        return workspace

    def test_churned_workspace_is_all_ok(self, tmp_path):
        workspace = self._churned_workspace(tmp_path)
        report = run_doctor(workspace)
        statuses = {check.name: check.status for check in report.checks}
        assert report.healthy, statuses
        bad = {
            name: status for name, status in statuses.items()
            if status != "OK"
        }
        assert not bad, bad
        workspace.close()

    def test_report_round_trips_and_rows_match(self, tmp_path):
        workspace = self._churned_workspace(tmp_path)
        report = run_doctor(workspace, probe=False)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["healthy"] is True
        assert len(payload["checks"]) == len(report.rows())
        names = [check["name"] for check in payload["checks"]]
        assert "manifest" in names
        assert "index_accounting" in names
        # probe=False must skip the active probes.
        assert "query_probe" not in names
        workspace.close()

    def test_detects_index_slot_corruption(self, tmp_path):
        workspace = self._churned_workspace(tmp_path)
        workspace._index.slots.append("phantom-slot")
        report = run_doctor(workspace, probe=False)
        assert not report.healthy
        failing = {
            check.name for check in report.checks if check.status == "FAIL"
        }
        assert "index_accounting" in failing
        workspace.close()

    def test_detects_corrupt_event_log_file(self, tmp_path):
        workspace = self._churned_workspace(tmp_path)
        with open(workspace.events.path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        report = run_doctor(workspace, probe=False)
        failing = {
            check.name for check in report.checks if check.status == "FAIL"
        }
        assert "event_log" in failing
        workspace.close()

    def test_stale_index_is_warn_not_fail(self):
        config = WorkspaceConfig(
            index=IndexConfig(
                num_codewords=16, num_shards=2, candidate_budget=8,
                incremental=False,
            ),
            default_k=3,
        )
        workspace = Workspace(config)
        _populate(workspace, 5)
        workspace.build_index()
        workspace.add(_series(9.0), identifier="staler")
        report = run_doctor(workspace, probe=False)
        statuses = {check.name: check.status for check in report.checks}
        assert statuses["index_accounting"] == "WARN"
        assert report.healthy

    @pytest.mark.parametrize("num_codewords", [16, 32, 256])
    def test_soft_assigned_index_after_churn_is_healthy(self, num_codewords):
        workspace = Workspace(
            WorkspaceConfig(index=IndexConfig(num_codewords=num_codewords))
        )
        identifiers = _populate(workspace, 8)
        workspace.build_index()
        assert run_doctor(workspace, probe=False).healthy
        workspace.remove(identifiers[0])
        workspace.add(_series(9.0), identifier="late")
        report = run_doctor(workspace, probe=False)
        assert report.healthy, [check.to_dict() for check in report.checks]

    def test_stale_index_after_remove_is_healthy(self):
        config = WorkspaceConfig(
            index=IndexConfig(
                num_codewords=16, num_shards=2, candidate_budget=8,
                incremental=False,
            ),
            default_k=3,
        )
        workspace = Workspace(config)
        identifiers = _populate(workspace, 5)
        workspace.build_index()
        workspace.remove(identifiers[0])
        report = run_doctor(workspace, probe=False)
        assert report.healthy, [check.to_dict() for check in report.checks]

    def test_in_memory_empty_workspace_is_healthy(self):
        report = run_doctor(Workspace(_small_config()))
        assert report.healthy

    def test_check_crash_is_contained_as_fail(self, tmp_path):
        workspace = self._churned_workspace(tmp_path)
        workspace._index.index = None  # break an attribute checks rely on
        report = run_doctor(workspace, probe=False)
        assert not report.healthy
        crashed = [
            check for check in report.checks
            if check.status == "FAIL" and "check crashed" in check.detail
        ]
        assert crashed
        workspace.close()
