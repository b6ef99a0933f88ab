"""StreamMonitor block ingestion: chunk sizes, merge order, whole chunks.

``extend`` ingests a chunk in blocks and scores each block's windows
together.  Whatever the chunk size, every pattern must report what the
per-tick offline scans report, the merged list must come back in (settle
tick, registration order), and the work counters must not depend on how
the stream was cut.  A block's adaptive bands, built together, must equal
the per-window bands the offline scan builds, and a block's shared-band
DPs, run together, must equal the per-window scan.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core.bands import parse_constraint_spec
from repro.core.config import DescriptorConfig, MatchingConfig, SDTWConfig
from repro.core.features import FeatureSet, extract_salient_features
from repro.core.matching import match_salient_features
from repro.dtw.banded import banded_dtw
from repro.dtw.constraints import full_band, itakura_band, sakoe_chiba_band_fraction
from repro.datasets.generators import embed_pattern_stream, make_stream_patterns
from repro.exceptions import ValidationError
from repro.streaming import StreamMonitor
from repro.streaming.buffer import StreamBuffer
from repro.streaming.incremental import IncrementalExtractor
from repro.streaming.offline import (
    calibrate_thresholds,
    naive_sliding_scan,
    naive_spring_scan,
)
from repro.streaming.subsequence import (
    SlidingWindowMatcher,
    build_stream_band,
    build_stream_bands,
    shift_snapshot_features,
)

M = 32
SPRING_M = 12


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(5)
    patterns = make_stream_patterns(2, M, rng)
    stream, truth = embed_pattern_stream(
        300, patterns, rng, occurrences_per_pattern=2
    )
    config = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))
    acaw = calibrate_thresholds(stream, patterns, truth, config, constraint="ac,aw")
    fcfw = calibrate_thresholds(stream, patterns, truth, config)
    spring = patterns[1][::3][:SPRING_M]
    # (name, values, mode, constraint, threshold), in registration order.
    # The two ac,aw patterns share one extractor; the fc,fw pattern is the
    # first ac,aw pattern again, so some matches settle on the same tick.
    kinds = [
        ("acaw-a", patterns[0], "sliding", "ac,aw", acaw[0]),
        ("acaw-b", patterns[1], "sliding", "ac,aw", acaw[1]),
        ("fcfw", patterns[0], "sliding", "fc,fw", fcfw[0]),
        ("spring", spring, "spring", "fc,fw", 1.5),
    ]
    return stream, config, kinds


def build(config, kinds, capacity=2 * M):
    monitor = StreamMonitor(config)
    monitor.add_stream("s", capacity=capacity)
    for name, values, mode, constraint, threshold in kinds:
        monitor.add_pattern(values, name=name, mode=mode, constraint=constraint,
                            threshold=threshold)
    return monitor


def feed(monitor, stream, chunk):
    """Per-call match lists, the finalize flush last."""
    calls = [monitor.extend("s", stream[begin: begin + chunk])
             for begin in range(0, stream.size, chunk)]
    return calls + [monitor.finalize("s")]


def key(match):
    return (match.pattern, match.start, match.end, match.distance)


class TestChunkSizes:
    def test_shared_extractor_is_used(self, setup):
        stream, config, kinds = setup
        monitor = build(config, kinds)
        assert (monitor.matcher("s", "acaw-a").extractor
                is monitor.matcher("s", "acaw-b").extractor)

    def test_every_pattern_equals_its_offline_scan(self, setup):
        stream, config, kinds = setup
        monitor = build(config, kinds)
        online = [m for call in feed(monitor, stream, stream.size) for m in call]
        for name, values, mode, constraint, threshold in kinds:
            mine = [key(m) for m in online if m.pattern == name]
            if mode == "spring":
                offline = naive_spring_scan(stream, values, threshold, name=name)
            else:
                offline, _ = naive_sliding_scan(
                    stream, values, threshold, constraint=constraint,
                    config=config, name=name,
                )
            # SPRING's carried column sums in another order than the
            # offline table, so its distances agree to rounding.
            assert [k[:3] for k in mine] == [key(m)[:3] for m in offline]
            assert [k[3] for k in mine] == pytest.approx(
                [m.distance for m in offline], abs=1e-12
            )
            assert mine, name

    def test_order_and_stats_do_not_depend_on_chunk_size(self, setup):
        stream, config, kinds = setup
        reference = build(config, kinds)
        per_tick = feed(reference, stream, 1)
        # Chunks of one sample report each tick's matches in registration
        # order; check that this run has a tick where several settle.
        order = [name for name, *_ in kinds]
        for call in per_tick[:-1]:
            ranks = [order.index(m.pattern) for m in call]
            assert ranks == sorted(ranks)
        assert max(len(call) for call in per_tick[:-1]) >= 2
        expected = [key(m) for call in per_tick for m in call]
        for chunk in (7, M, stream.size):
            monitor = build(config, kinds)
            got = [key(m) for call in feed(monitor, stream, chunk) for m in call]
            assert got == expected, chunk
            for name in order:
                assert monitor.stats(name) == reference.stats(name), (chunk, name)


class TestCapacity:
    def test_add_stream_rejects_capacity_below_a_pattern(self):
        monitor = StreamMonitor()
        monitor.add_pattern(np.sin(np.linspace(0, 6.28, 64)), name="p",
                            threshold=1.0, mode="sliding")
        with pytest.raises(ValidationError):
            monitor.add_stream("s", capacity=32)
        assert monitor.streams() == []

    def test_patterns_of_other_streams_do_not_count(self):
        monitor = StreamMonitor()
        monitor.add_stream("a", capacity=64)
        monitor.add_pattern(np.sin(np.linspace(0, 6.28, 64)), name="p",
                            threshold=1.0, mode="sliding", streams=("a",))
        monitor.add_stream("b", capacity=32)
        assert monitor.streams() == ["a", "b"]

    def test_capacity_equal_to_the_pattern_length_streams(self, setup):
        stream, config, kinds = setup
        name, values, mode, constraint, threshold = kinds[0]
        monitor = build(config, [kinds[0]], capacity=M)
        online = [m for call in feed(monitor, stream, 100) for m in call]
        offline, _ = naive_sliding_scan(stream, values, threshold,
                                        constraint=constraint, config=config,
                                        name=name)
        assert [key(m) for m in online] == [key(m) for m in offline]
        assert monitor.stats(name).ticks == stream.size


class TestWholeChunks:
    def test_rejected_chunk_ingests_nothing(self, setup):
        stream, config, kinds = setup
        good = stream[:150]
        monitor = build(config, kinds)
        first = monitor.extend("s", good[:40])
        before = {name: monitor.stats(name) for name, *_ in kinds}
        with pytest.raises(ValidationError):
            monitor.extend("s", np.append(good[40:], np.nan))
        assert monitor.buffer("s").total == 40
        assert {name: monitor.stats(name) for name, *_ in kinds} == before
        # The good samples afterwards report what a fresh monitor does.
        got = first + monitor.extend("s", good[40:]) + monitor.finalize("s")
        fresh = build(config, kinds)
        expected = fresh.extend("s", good) + fresh.finalize("s")
        assert [key(m) for m in got] == [key(m) for m in expected]
        assert got


class TestBlockBands:
    """``build_stream_bands`` over each block of a stream, against the
    per-window ``build_stream_band``.  Without ``symmetric_band`` (whose
    per-window reverse bands go through the same helpers) the counters
    check that the run reaches the block's special paths: bands that need
    repair, interval lookups on shared interval starts, and windows
    without a match."""

    @pytest.mark.parametrize("constraint", ["fc,aw", "ac,fw", "ac,aw", "ac2,aw"])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_block_bands_equal_per_window_bands(
        self, setup, constraint, symmetric, monkeypatch
    ):
        stream, _, kinds = setup
        config = SDTWConfig(
            descriptor=DescriptorConfig(num_bins=16),
            matching=MatchingConfig(max_amplitude_difference=0.05),
            symmetric_band=symmetric,
        )
        spec = parse_constraint_spec(constraint)
        pattern = FeatureSet(extract_salient_features(kinds[0][1], config))
        extractor = IncrementalExtractor(M, config, hop=4)
        buffer = StreamBuffer(capacity=stream.size)
        banded = importlib.import_module("repro.dtw.banded")
        intervals = importlib.import_module("repro.core.intervals")
        seen = {"repairs": 0, "replays": 0, "unmatched": 0, "windows": 0}

        def counted(module, name, counter):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                seen[counter] += 1
                return original(*args, **kwargs)

            return wrapper

        for begin in range(0, stream.size, 40):
            chunk = stream[begin: begin + 40]
            for value in chunk:
                buffer.append(value)
            snapshots = extractor.observe_block(buffer, chunk.size)
            if not snapshots:
                continue
            first = max(buffer.total - chunk.size, M - 1)
            shifts = [first + k - M + 1 - start
                      for k, (_, start) in enumerate(snapshots)]
            with monkeypatch.context() as patch:
                patch.setattr(banded, "validate_band",
                              counted(banded, "validate_band", "repairs"))
                patch.setattr(intervals, "_replay_search",
                              counted(intervals, "_replay_search", "replays"))
                bands = build_stream_bands(
                    spec, [features for features, _ in snapshots], shifts,
                    pattern, M, config,
                )
            for (features, _), shift, band in zip(snapshots, shifts, bands):
                window = shift_snapshot_features(features, shift, M)
                seen["unmatched"] += not match_salient_features(
                    window, pattern, config.matching
                )
                assert np.array_equal(
                    band, build_stream_band(spec, window, pattern, M, M, config)
                )
            seen["windows"] += len(shifts)
        assert seen["windows"] == stream.size - M + 1
        assert seen["unmatched"] > 0
        if not symmetric:
            assert seen["repairs"] > 0 or constraint == "fc,aw"
            assert seen["replays"] > 0 or constraint == "ac,fw"


class TestSharedBandBlocks:
    """A block's shared-band survivors run through one ``banded_dtw_batch``
    call, and a lone survivor through the per-pair ``banded_dtw``; each
    must get the per-window ``banded_dtw`` result, and the stats must be
    what the per-window results add up to."""

    BANDS = {
        "fc,fw": lambda config: sakoe_chiba_band_fraction(M, M, config.width_fraction),
        "full": lambda config: full_band(M, M),
        "itakura": lambda config: itakura_band(M, M, 2.0),
    }

    @pytest.mark.parametrize("constraint", ["fc,fw", "full", "itakura"])
    @pytest.mark.parametrize("chunk", [1, 7, 40])
    def test_block_dp_equals_per_window_scan(self, setup, constraint, chunk, monkeypatch):
        stream, config, kinds = setup
        _, pattern, _, _, threshold = kinds[2]
        subsequence = importlib.import_module("repro.streaming.subsequence")
        batch, single = subsequence.banded_dtw_batch, subsequence.banded_dtw
        calls = []

        def batched(xs, ys, bands, func, abandon):
            found, cells, dropped = batch(xs, ys, bands, func, abandon)
            calls.append((np.array(xs), abandon, found, cells, dropped))
            return found, cells, dropped

        def alone(x, y, band, distance, **options):
            result = single(x, y, band, distance, **options)
            calls.append((np.array([x]), options["abandon_threshold"],
                          np.array([result.distance]), np.array([result.cells_filled]),
                          np.array([result.abandoned])))
            return result

        monkeypatch.setattr(subsequence, "banded_dtw_batch", batched)
        monkeypatch.setattr(subsequence, "banded_dtw", alone)
        matcher = SlidingWindowMatcher(pattern, threshold, constraint=constraint,
                                       config=config)
        buffer = StreamBuffer(capacity=stream.size)
        for begin in range(0, stream.size, chunk):
            block = stream[begin: begin + chunk]
            for value in block:
                buffer.append(value)
            matcher.score_block(buffer, block.size)
        band = self.BANDS[constraint](config)
        runs = abandoned = cells = 0
        for windows, abandon, found, filled, dropped in calls:
            for window, distance, count, gave_up in zip(windows, found, filled, dropped):
                expected = banded_dtw(window, pattern, band, config.pointwise_distance,
                                      return_path=False, abandon_threshold=abandon)
                assert (expected.abandoned, expected.cells_filled) == (gave_up, count)
                assert np.float64(expected.distance).tobytes() == distance.tobytes()
                runs += not gave_up
                abandoned += bool(gave_up)
                cells += int(count)
        stats = matcher.stats
        assert (stats.dp_runs, stats.dp_abandoned, stats.cells_filled) == (
            runs, abandoned, cells)
        assert runs > 0 and abandoned > 0
        # Blocks of one tick have lone survivors; longer ones batch several.
        sizes = {len(windows) for windows, *_ in calls}
        assert sizes == {1} if chunk == 1 else max(sizes) > 1

    @pytest.mark.parametrize("constraint", ["full", "itakura"])
    def test_matches_equal_the_offline_scan(self, setup, constraint):
        stream, config, kinds = setup
        name, pattern, _, _, threshold = kinds[2]
        monitor = StreamMonitor(config)
        monitor.add_stream("s", capacity=2 * M)
        monitor.add_pattern(pattern, name=name, mode="sliding", constraint=constraint,
                            threshold=threshold)
        online = [m for call in feed(monitor, stream, 40) for m in call]
        offline, _ = naive_sliding_scan(stream, pattern, threshold, constraint=constraint,
                                        config=config, name=name)
        assert [key(m) for m in online] == [key(m) for m in offline]
        assert online
