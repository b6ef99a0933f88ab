"""Tests for the telemetry layer: metrics registry semantics (thread
safety, quantile accuracy, Prometheus rendering), trace plumbing, and the
Workspace integration that carries a trace through every query mode."""

from __future__ import annotations

import re
import threading

import numpy as np
import pytest

import repro.service.workspace as workspace_module
from repro.datasets.synthetic import make_gun_like
from repro.engine import EngineStats
from repro.exceptions import ValidationError
from repro.service import (
    EngineConfig,
    IndexConfig,
    ServingConfig,
    Workspace,
    WorkspaceConfig,
)
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullMetricsRegistry,
    QueryTrace,
    TraceRing,
    TraceStage,
    current_trace,
    trace_scope,
)


# --------------------------------------------------------------------- #
# Registry primitives
# --------------------------------------------------------------------- #
class TestCounters:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("repro_test_total", "help")
        with pytest.raises(ValidationError):
            counter.inc(-1.0)

    def test_labelled_children_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_ops_total", "help", labels=("op",))
        family.labels(op="add").inc(3)
        family.labels(op="remove").inc()
        assert family.labels(op="add").value == 3
        assert family.labels(op="remove").value == 1

    def test_label_schema_enforced(self):
        family = MetricsRegistry().counter(
            "repro_ops_total", "help", labels=("op",))
        with pytest.raises(ValidationError):
            family.labels(kind="add")          # wrong label name
        with pytest.raises(ValidationError):
            family.labels(op="add", extra="x")  # extra label


class TestGauges:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("repro_depth", "help")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == pytest.approx(7.0)


class TestHistograms:
    def test_counts_land_in_le_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h", "help", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(106.0)
        buckets = registry.to_dict()["histograms"]["repro_h"]["series"][""][
            "buckets"]
        # le semantics: 1.0 lands in the first bucket; cumulative counts.
        assert buckets == {"1": 2, "2": 3, "4": 4, "+Inf": 5}

    def test_quantile_tracks_numpy_percentile(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.0005, 0.9, size=5000)
        hist = MetricsRegistry().histogram(
            "repro_lat", "help", buckets=DEFAULT_LATENCY_BUCKETS)
        for value in samples:
            hist.observe(float(value))
        for q in (0.50, 0.95, 0.99):
            estimate = hist.quantile(q)
            exact = float(np.percentile(samples, q * 100.0))
            # The estimator interpolates inside the containing bucket, so
            # its error is bounded by that bucket's width.
            assert abs(estimate - exact) <= 0.16, (q, estimate, exact)

    def test_empty_histogram_quantile_is_zero(self):
        hist = MetricsRegistry().histogram("repro_h", "help")
        assert hist.quantile(0.5) == 0.0

    def test_buckets_must_increase(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().histogram(
                "repro_h", "help", buckets=(1.0, 1.0, 2.0))


class TestRegistry:
    def test_name_validation(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().counter("bad name!", "help")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x", "help")
        with pytest.raises(ValidationError):
            registry.gauge("repro_x", "help")

    def test_label_schema_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x", "help", labels=("a",))
        with pytest.raises(ValidationError):
            registry.counter("repro_x", "help", labels=("b",))

    def test_reregistration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x", "help")
        second = registry.counter("repro_x", "help")
        first.inc()
        assert second.value == 1

    def test_thread_safety_exact_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_hits_total", "help")
        family = registry.counter(
            "repro_labelled_total", "help", labels=("worker",))
        hist = registry.histogram(
            "repro_obs", "help", buckets=(0.25, 0.5, 0.75))
        per_thread = 2000

        def hammer(worker: int) -> None:
            child = family.labels(worker=str(worker % 2))
            for i in range(per_thread):
                counter.inc()
                child.inc()
                hist.observe((i % 4) / 4.0)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert counter.value == 8 * per_thread
        total = sum(family.labels(worker=str(w)).value for w in (0, 1))
        assert total == 8 * per_thread
        assert hist.count == 8 * per_thread
        assert hist.sum == pytest.approx(8 * per_thread * 0.375)


class TestExports:
    @staticmethod
    def _populated_registry() -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_queries_total", "Total queries.",
                         labels=("mode",)).labels(mode="exact").inc(3)
        registry.gauge("repro_depth", 'Pending "depth"\n gauge.').set(4)
        hist = registry.histogram("repro_lat_seconds", "Latency.",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        return registry

    def test_to_dict_structure(self):
        payload = self._populated_registry().to_dict()
        assert set(payload) == {"counters", "gauges", "histograms"}
        counter = payload["counters"]["repro_queries_total"]
        assert counter["labels"] == ["mode"]
        assert counter["values"]["mode=exact"] == 3
        assert payload["gauges"]["repro_depth"]["values"][""] == 4
        hist = payload["histograms"]["repro_lat_seconds"]["series"][""]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(5.05)
        assert {"p50", "p95", "p99"} <= set(hist)

    def test_prometheus_exposition_format(self):
        text = self._populated_registry().render_prometheus()
        lines = text.strip().splitlines()
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? '
            r'([-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$')
        for line in lines:
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ",
                                line), line
            else:
                assert sample_re.match(line), line
        assert 'repro_queries_total{mode="exact"} 3' in lines
        # Help text must escape the quote/newline we planted.
        assert '# HELP repro_depth Pending "depth"\\n gauge.' in text
        # Cumulative buckets end in +Inf which equals the count.
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "repro_lat_seconds_count 2" in lines
        buckets = [int(line.rsplit(" ", 1)[1]) for line in lines
                   if line.startswith("repro_lat_seconds_bucket")]
        assert buckets == sorted(buckets)


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        registry = NullMetricsRegistry()
        assert registry.enabled is False
        child = registry.counter("anything at all", "")
        child.inc()
        child.labels(x="y").observe(1.0)
        child.set(5)
        assert registry.to_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        assert registry.render_prometheus() == ""

    def test_children_are_shared_singletons(self):
        a = NULL_REGISTRY.counter("a", "")
        b = NULL_REGISTRY.histogram("b", "")
        assert a is b
        assert a.labels(any="thing") is a


# --------------------------------------------------------------------- #
# Traces
# --------------------------------------------------------------------- #
class TestQueryTrace:
    def test_finish_appends_residual_so_stages_sum_to_total(self):
        trace = QueryTrace(mode="exact", k=3)
        trace.add_stage("bounds", 0.25, pruned=4)
        trace.add_stage("dp", 0.5)
        trace.finish(1.0)
        assert trace.stages[-1].name == "other"
        assert trace.stage_seconds() == pytest.approx(1.0)
        assert trace.total_seconds == pytest.approx(1.0)

    def test_negative_stage_time_clamped(self):
        trace = QueryTrace()
        trace.add_stage("weird", -0.5)
        assert trace.stages[0].seconds == 0.0

    def test_to_dict_round(self):
        trace = QueryTrace(mode="indexed", k=2, collection_size=10)
        trace.add_stage("bounds", 0.1, pruned=1)
        trace.finish(0.1)
        payload = trace.to_dict()
        assert payload["mode"] == "indexed"
        assert payload["stages"][0] == {
            "name": "bounds", "seconds": 0.1, "attributes": {"pruned": 1}}

    def test_stage_dataclass(self):
        stage = TraceStage("x", 1.0, {"a": 2})
        assert stage.to_dict()["attributes"] == {"a": 2}


class TestTraceRing:
    def test_capacity_evicts_oldest(self):
        ring = TraceRing(2)
        for mode in ("a", "b", "c"):
            ring.append(QueryTrace(mode=mode))
        assert [t.mode for t in ring.snapshot()] == ["b", "c"]
        assert len(ring) == 2

    def test_zero_capacity_keeps_nothing(self):
        ring = TraceRing(0)
        ring.append(QueryTrace())
        assert ring.snapshot() == []

    def test_clear(self):
        ring = TraceRing(4)
        ring.append(QueryTrace())
        ring.clear()
        assert len(ring) == 0


class TestTraceScope:
    def test_scope_installs_and_restores(self):
        assert current_trace() is None
        trace = QueryTrace()
        with trace_scope(trace):
            assert current_trace() is trace
            inner = QueryTrace()
            with trace_scope(inner):
                assert current_trace() is inner
            assert current_trace() is trace
        assert current_trace() is None

    def test_none_scope_is_a_noop(self):
        with trace_scope(None):
            assert current_trace() is None

    def test_thread_local(self):
        seen = {}

        def worker():
            seen["other"] = current_trace()

        with trace_scope(QueryTrace()):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["other"] is None


# --------------------------------------------------------------------- #
# EngineStats zero record (satellite)
# --------------------------------------------------------------------- #
class TestEngineStatsZeroRecord:
    def test_merged_empty_is_all_zero(self):
        zero = EngineStats.merged([])
        assert zero.queries == 0
        assert zero.candidates == 0
        assert zero.cells_filled == 0
        assert zero.elapsed_seconds == 0.0

    def test_derived_ratios_well_defined_on_zero(self):
        zero = EngineStats.merged([])
        assert zero.prune_rate == 0.0
        assert zero.cell_fraction == 0.0
        assert zero.cell_gain == 1.0
        assert zero.time_gain(0.0) == 0.0

    def test_merged_matches_pairwise_merge(self):
        a = EngineStats(queries=1, candidates=5, cells_filled=10,
                        total_cells=100, dp_seconds=0.5)
        b = EngineStats(queries=2, candidates=3, cells_filled=4,
                        total_cells=50, dp_seconds=0.25)
        merged = EngineStats.merged([a, b])
        assert merged.queries == 3
        assert merged.candidates == 8
        assert merged.cell_fraction == pytest.approx(14 / 150)

    def test_to_dict_has_fields_and_ratios(self):
        payload = EngineStats(candidates=4, pruned_lb_kim=1).to_dict()
        assert payload["candidates"] == 4
        assert payload["pruned"] == 1
        assert payload["prune_rate"] == pytest.approx(0.25)
        assert {"cell_fraction", "cell_gain", "refined"} <= set(payload)


# --------------------------------------------------------------------- #
# Workspace integration
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=12, seed=23)


def _workspace(dataset, **serving):
    config = WorkspaceConfig(
        engine=EngineConfig(constraint="fc,fw"),
        index=IndexConfig(num_codewords=24, num_shards=2,
                          candidate_budget=8),
        serving=ServingConfig(**serving),
        default_k=3,
    )
    workspace = Workspace(config)
    workspace.add_dataset(dataset)
    workspace.build_index()
    return workspace


def _assert_trace_complete(result, expected_stage: str) -> None:
    trace = result.trace
    assert trace is not None
    assert trace.mode == result.mode
    names = [stage.name for stage in trace.stages]
    assert expected_stage in names, names
    # Acceptance criterion: per-stage times sum within 10% of the total.
    total = trace.total_seconds
    assert total > 0.0
    assert abs(trace.stage_seconds() - total) <= 0.1 * total


class TestWorkspaceTraces:
    def test_exact_mode_trace(self, dataset):
        workspace = _workspace(dataset)
        result = workspace.query(dataset[0].values, mode="exact",
                                 exclude_identifier=dataset[0].identifier)
        _assert_trace_complete(result, "dp")
        names = [stage.name for stage in result.trace.stages]
        assert names.index("bounds") < names.index("dp")
        # Exact scans "generate" the whole collection; the cascade then
        # considered everything but the excluded query itself.
        assert result.trace.candidates_generated == 12
        assert result.trace.attributes["candidates"] == 11

    def test_indexed_tfidf_trace(self, dataset):
        workspace = _workspace(dataset)
        result = workspace.query(dataset[1].values, mode="indexed",
                                 rank_mode="tfidf")
        _assert_trace_complete(result, "candidate_rank")
        names = [stage.name for stage in result.trace.stages]
        assert "query_features" in names
        rank = next(stage for stage in result.trace.stages
                    if stage.name == "candidate_rank")
        assert rank.attributes["rank_mode"] == "tfidf"

    def test_indexed_pq_trace(self, dataset):
        workspace = _workspace(dataset)
        result = workspace.query(dataset[2].values, mode="indexed",
                                 rank_mode="pq")
        _assert_trace_complete(result, "candidate_rank")
        rank = next(stage for stage in result.trace.stages
                    if stage.name == "candidate_rank")
        assert rank.attributes["rank_mode"] == "pq"

    def test_repeat_indexed_query_hits_candidate_cache(self, dataset):
        workspace = _workspace(dataset)
        workspace.query(dataset[3].values, mode="indexed")
        result = workspace.query(dataset[3].values, mode="indexed")
        names = [stage.name for stage in result.trace.stages]
        assert "candidate_cache" in names
        payload = workspace.metrics_to_dict()
        values = payload["counters"][
            "repro_candidate_cache_requests_total"]["values"]
        assert values.get("outcome=hit", 0) >= 1

    def test_batched_mode_records_queue_wait(self, dataset):
        workspace = _workspace(dataset, micro_batch=True)
        result = workspace.query(dataset[4].values, mode="exact")
        assert result.queue_wait_seconds >= 0.0
        assert "queue_wait_seconds" in result.timings()
        _assert_trace_complete(result, "dp")

    def test_trace_ring_retains_recent(self, dataset, monkeypatch):
        monkeypatch.setattr(workspace_module, "TRACE_RING", 2)
        workspace = _workspace(dataset)
        for i in range(3):
            workspace.query(dataset[i].values, mode="exact")
        traces = workspace.recent_traces()
        assert len(traces) == 2
        assert all(t["mode"] == "exact" for t in traces)


class TestWorkspaceMetrics:
    def test_metrics_cover_required_families(self, dataset):
        workspace = _workspace(dataset)
        workspace.query(dataset[0].values, mode="exact")
        workspace.query(dataset[1].values, mode="indexed")
        payload = workspace.metrics_to_dict()
        assert "repro_queries_total" in payload["counters"]
        assert "repro_cascade_pruned_total" in payload["counters"]
        assert "repro_snapshots_total" in payload["counters"]
        assert "repro_query_seconds" in payload["histograms"]
        assert "repro_query_stage_seconds" in payload["histograms"]
        assert "repro_pending_mutations" in payload["gauges"]
        assert "repro_postings_cache_hits" in payload["gauges"]
        text = workspace.metrics_prometheus()
        assert "# TYPE repro_query_seconds histogram" in text
        assert 'repro_queries_total{mode="exact"} 1' in text

    def test_mutation_and_snapshot_counters(self, dataset):
        workspace = _workspace(dataset)
        workspace.query(dataset[0].values, mode="exact")   # builds snapshot
        workspace.add(dataset[0].values * 0.5)
        workspace.query(dataset[0].values, mode="exact")   # derives snapshot
        payload = workspace.metrics_to_dict()
        snaps = payload["counters"]["repro_snapshots_total"]["values"]
        assert snaps.get("kind=rebuilt", 0) >= 1
        assert snaps.get("kind=derived", 0) >= 1
        muts = payload["counters"]["repro_mutations_total"]["values"]
        assert muts.get("op=add", 0) >= 1

    def test_stats_reports_telemetry_flag(self, dataset):
        workspace = _workspace(dataset)
        assert workspace.stats()["telemetry"] is True


class TestTelemetryDisabled:
    def test_disabled_workspace_is_silent(self, dataset):
        workspace = _workspace(dataset, telemetry=False)
        result = workspace.query(dataset[0].values, mode="exact")
        assert result.trace is None
        assert workspace.metrics.enabled is False
        assert workspace.metrics_to_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        assert workspace.metrics_prometheus() == ""
        assert workspace.recent_traces() == []
        assert workspace.stats()["telemetry"] is False
        # Results themselves are unaffected.
        enabled = _workspace(dataset)
        reference = enabled.query(dataset[0].values, mode="exact")
        assert result.ids == reference.ids
        assert np.allclose(result.distances, reference.distances)


class TestServingConfigRoundTrip:
    def test_telemetry_fields_round_trip(self):
        config = ServingConfig(telemetry=False)
        restored = ServingConfig.from_dict(config.to_dict())
        assert restored.telemetry is False

    def test_workspace_manifest_persists_telemetry(self, dataset, tmp_path):
        config = WorkspaceConfig(
            serving=ServingConfig(telemetry=False))
        workspace = Workspace.create(tmp_path / "ws", config=config)
        workspace.add_dataset(dataset)
        workspace.save()
        reopened = Workspace.open(tmp_path / "ws")
        assert reopened.config.serving.telemetry is False
        assert reopened.query(dataset[0].values).trace is None
