"""StreamMonitor tests: offline-scan equivalence and multiplexing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.datasets.generators import embed_pattern_stream, make_stream_patterns
from repro.exceptions import ValidationError
from repro.streaming import StreamMonitor
from repro.streaming.offline import naive_sliding_scan, naive_spring_scan


@pytest.fixture(scope="module")
def config():
    return SDTWConfig(descriptor=DescriptorConfig(num_bins=16))


@pytest.fixture(scope="module")
def stream_setup():
    rng = np.random.default_rng(23)
    m = 48
    pattern = np.sin(np.linspace(0.0, 2.0 * np.pi, m)) + 0.3 * np.sin(
        np.linspace(0.0, 6.0 * np.pi, m)
    )
    stream = rng.normal(0.0, 0.5, 700)
    for pos in (90, 330, 560):
        stream[pos: pos + m] = pattern + rng.normal(0.0, 0.05, m)
    return pattern, stream


def assert_same_matches(online, offline):
    assert len(online) == len(offline)
    for a, b in zip(online, offline):
        assert a.start == b.start
        assert a.end == b.end
        assert a.distance == pytest.approx(b.distance, abs=1e-12)


class TestOfflineEquivalence:
    """The acceptance criterion: online == offline sliding-window scan."""

    @pytest.mark.parametrize("constraint", ["fc,fw", "full", "itakura", "ac,aw"])
    def test_sliding_monitor_equals_offline_scan(
        self, stream_setup, config, constraint
    ):
        pattern, stream = stream_setup
        threshold = 6.0
        monitor = StreamMonitor(config)
        monitor.add_stream("s", capacity=4 * pattern.size)
        monitor.add_pattern(
            pattern, name="p", threshold=threshold,
            mode="sliding", constraint=constraint,
        )
        online = monitor.extend("s", stream) + monitor.finalize("s")
        offline, profile = naive_sliding_scan(
            stream, pattern, threshold, constraint=constraint, config=config
        )
        assert_same_matches(online, offline)
        assert len(online) == 3
        assert np.isfinite(profile[pattern.size - 1:]).all()

    def test_equivalence_survives_pruning_toggle(self, stream_setup, config):
        pattern, stream = stream_setup
        threshold = 6.0
        results = []
        for prune in (True, False):
            monitor = StreamMonitor(config, prune=prune, early_abandon=prune)
            monitor.add_stream("s", capacity=4 * pattern.size)
            monitor.add_pattern(
                pattern, name="p", threshold=threshold, mode="sliding"
            )
            results.append(
                monitor.extend("s", stream) + monitor.finalize("s")
            )
        assert_same_matches(results[0], results[1])

    def test_spring_monitor_equals_naive_scan(self, stream_setup):
        pattern, stream = stream_setup
        short_pattern = pattern[:16]
        prefix = stream[:260]
        threshold = 2.0
        monitor = StreamMonitor()
        monitor.add_stream("s", capacity=128)
        monitor.add_pattern(
            short_pattern, name="p", threshold=threshold, mode="spring"
        )
        online = monitor.extend("s", prefix) + monitor.finalize("s")
        offline = naive_spring_scan(prefix, short_pattern, threshold)
        assert_same_matches(online, offline)


class TestMultiplexing:
    def test_many_patterns_over_many_streams(self, config):
        rng = np.random.default_rng(31)
        m = 40
        patterns = make_stream_patterns(2, m, rng)
        streams = {}
        truths = {}
        for name in ("alpha", "beta"):
            streams[name], truths[name] = embed_pattern_stream(
                600, patterns, rng, occurrences_per_pattern=2
            )
        monitor = StreamMonitor(config)
        for name in streams:
            monitor.add_stream(name, capacity=4 * m)
        names = [
            monitor.add_pattern(p, threshold=8.0, mode="sliding")
            for p in patterns
        ]
        matches = []
        for name, values in streams.items():
            matches += monitor.extend(name, values)
        matches += monitor.finalize()
        assert {m.stream for m in matches} <= set(streams)
        assert {m.pattern for m in matches} <= set(names)
        # Every matcher saw every tick of its stream.
        for pattern_name in names:
            stats = monitor.stats(pattern_name)
            assert stats.ticks == sum(len(v) for v in streams.values())
            per_stream = monitor.stats(pattern_name, stream="alpha")
            assert per_stream.ticks == len(streams["alpha"])

    def test_pattern_restricted_to_one_stream(self, config):
        monitor = StreamMonitor(config)
        monitor.add_stream("a", capacity=128)
        monitor.add_stream("b", capacity=128)
        pattern = np.sin(np.linspace(0, 6.28, 24))
        monitor.add_pattern(
            pattern, name="only-a", threshold=1.0, streams=("a",)
        )
        monitor.extend("a", np.zeros(30))
        monitor.extend("b", np.zeros(30))
        assert monitor.stats("only-a").ticks == 30
        with pytest.raises(ValidationError):
            monitor.matcher("b", "only-a")

    def test_streams_added_after_patterns_are_monitored(self, config):
        monitor = StreamMonitor(config)
        pattern = np.sin(np.linspace(0, 6.28, 24))
        monitor.add_pattern(pattern, name="p", threshold=1.0, mode="spring")
        monitor.add_stream("late")
        monitor.extend("late", np.zeros(10))
        assert monitor.stats("p").ticks == 10


class TestLateRegistration:
    """Patterns registered on a stream that already holds samples report
    absolute stream indices, SPRING's as well as the sliding matcher's."""

    M = 32

    @pytest.fixture()
    def late_stream(self):
        rng = np.random.default_rng(8)
        pattern = 2.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, self.M))
        noise = 10.0 + rng.normal(0.0, 0.1, 230)
        # 100 samples before registration, 50 after, the occurrence at
        # stream indices 150-181, then 80 more.
        stream = np.concatenate([noise[:150], pattern, noise[150:]])
        return pattern, stream

    def monitor(self, pattern, stream):
        monitor = StreamMonitor()
        monitor.add_stream("s")
        monitor.extend("s", stream[:100])
        monitor.add_pattern(pattern, name="spring", threshold=1.0, mode="spring")
        monitor.add_pattern(pattern, name="sliding", threshold=1.0, mode="sliding")
        return monitor

    def spans(self, matches):
        return sorted((m.pattern, m.start, m.end) for m in matches)

    def test_extend_reports_stream_indices(self, late_stream):
        pattern, stream = late_stream
        monitor = self.monitor(pattern, stream)
        matches = monitor.extend("s", stream[100:])
        assert self.spans(matches) == [("sliding", 150, 181), ("spring", 150, 181)]
        assert [(m.start, m.end) for m in naive_spring_scan(stream, pattern, 1.0)] == [
            (150, 181)
        ]
        # SPRING's work accounting still counts the ticks it consumed.
        assert monitor.stats("spring").ticks == stream.size - 100

    def test_push_reports_stream_indices(self, late_stream):
        pattern, stream = late_stream
        monitor = self.monitor(pattern, stream)
        matches = [m for value in stream[100:] for m in monitor.push("s", value)]
        assert self.spans(matches) == [("sliding", 150, 181), ("spring", 150, 181)]

    def test_finalize_reports_stream_indices(self, late_stream):
        pattern, stream = late_stream
        monitor = self.monitor(pattern, stream)
        pending = monitor.extend("s", stream[100: 150 + self.M])
        assert pending == []
        flushed = monitor.finalize("s")
        assert self.spans(flushed) == [("sliding", 150, 181), ("spring", 150, 181)]
        assert {m.stream for m in flushed} == {"s"}


class TestValidation:
    def test_unknown_stream_rejected(self):
        monitor = StreamMonitor()
        with pytest.raises(ValidationError):
            monitor.push("ghost", 1.0)

    def test_duplicate_names_rejected(self):
        monitor = StreamMonitor()
        monitor.add_stream("s")
        with pytest.raises(ValidationError):
            monitor.add_stream("s")
        pattern = np.ones(8)
        monitor.add_pattern(pattern, name="p", threshold=1.0)
        with pytest.raises(ValidationError):
            monitor.add_pattern(pattern, name="p", threshold=1.0)

    def test_unknown_mode_rejected(self):
        monitor = StreamMonitor()
        with pytest.raises(ValidationError):
            monitor.add_pattern(np.ones(8), threshold=1.0, mode="warp9")

    def test_pattern_longer_than_buffer_rejected(self):
        monitor = StreamMonitor()
        monitor.add_stream("s", capacity=16)
        with pytest.raises(ValidationError):
            monitor.add_pattern(np.ones(32), threshold=1.0, mode="sliding")

    def test_stats_for_unknown_pattern_rejected(self):
        monitor = StreamMonitor()
        with pytest.raises(ValidationError):
            monitor.stats("nope")


class TestSharedExtractor:
    def test_adaptive_patterns_share_one_extractor_per_stream(self, config):
        rng = np.random.default_rng(41)
        m = 48
        patterns = make_stream_patterns(2, m, rng)
        stream = rng.normal(0.0, 0.4, 300)

        monitor = StreamMonitor(config)
        monitor.add_stream("s", capacity=4 * m)
        names = [
            monitor.add_pattern(p, threshold=5.0, mode="sliding",
                                constraint="ac,aw")
            for p in patterns
        ]
        extractors = {
            id(monitor.matcher("s", name).extractor) for name in names
        }
        assert len(extractors) == 1

        # Shared-extractor results must equal per-matcher extractors.
        solo = StreamMonitor(config)
        solo.add_stream("s", capacity=4 * m)
        solo.add_pattern(patterns[0], name="only", threshold=5.0,
                         mode="sliding", constraint="ac,aw")
        shared_matches = monitor.extend("s", stream) + monitor.finalize("s")
        solo_matches = solo.extend("s", stream) + solo.finalize("s")
        mine = [(x.start, x.end, x.distance) for x in shared_matches
                if x.pattern == names[0]]
        theirs = [(x.start, x.end, x.distance) for x in solo_matches]
        assert mine == theirs

    def test_different_window_lengths_get_distinct_extractors(self, config):
        monitor = StreamMonitor(config)
        monitor.add_stream("s", capacity=512)
        a = monitor.add_pattern(np.sin(np.linspace(0, 6.28, 48)),
                                threshold=1.0, mode="sliding",
                                constraint="ac,aw")
        b = monitor.add_pattern(np.sin(np.linspace(0, 6.28, 64)),
                                threshold=1.0, mode="sliding",
                                constraint="ac,aw")
        assert (monitor.matcher("s", a).extractor
                is not monitor.matcher("s", b).extractor)
