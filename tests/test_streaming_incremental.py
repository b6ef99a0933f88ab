"""Tests for the incremental extractor: exact equivalence with batch extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.core.features import extract_salient_features
from repro.streaming.buffer import StreamBuffer
from repro.streaming.incremental import IncrementalExtractor


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(42)
    t = np.linspace(0.0, 60.0, 2000)
    return np.sin(t) + 0.4 * np.sin(3.1 * t) + np.cumsum(rng.normal(0, 0.03, t.size))


@pytest.fixture(scope="module")
def config():
    return SDTWConfig(descriptor=DescriptorConfig(num_bins=16))


def assert_features_identical(batch, incremental):
    assert len(batch) == len(incremental)
    for a, b in zip(batch, incremental):
        assert a.position == b.position
        assert a.sigma == b.sigma
        assert a.scope_start == b.scope_start
        assert a.scope_end == b.scope_end
        assert a.octave == b.octave and a.level == b.level
        assert a.amplitude == b.amplitude
        assert a.mean_amplitude == b.mean_amplitude
        assert a.dog_value == b.dog_value
        assert a.scale_class == b.scale_class
        np.testing.assert_array_equal(a.descriptor, b.descriptor)


class TestIncrementalExtractor:
    def test_features_identical_to_batch_at_every_refresh(self, stream, config):
        window = 256
        extractor = IncrementalExtractor(window, config)
        buffer = StreamBuffer(window)
        refreshes = 0
        for value in stream[:1200]:
            buffer.append(value)
            if extractor.observe(buffer):
                refreshes += 1
                batch = extract_salient_features(buffer.window(window), config)
                assert_features_identical(batch, extractor.features())
        assert refreshes > 5

    def test_misaligned_refresh_still_exact(self, stream, config):
        # A hop that is not a multiple of the coarsest octave stride moves
        # the coarse octaves' sample grid between refreshes; the output
        # must stay identical.
        window = 256
        extractor = IncrementalExtractor(window, config, hop=extractor_hop(window, 13))
        buffer = StreamBuffer(window)
        for value in stream[:800]:
            buffer.append(value)
            if extractor.observe(buffer):
                batch = extract_salient_features(buffer.window(window), config)
                assert_features_identical(batch, extractor.features())

    @pytest.mark.parametrize(
        "window, hop, chunk",
        [(64, 8, 32), (128, 16, 100), (256, 13, 90), (512, 61, 200)],
    )
    def test_block_refreshes_equal_tick_refreshes(self, stream, config, window, hop, chunk):
        # A block extracts all its due windows in one pass and must see
        # what refreshes one tick at a time see: the same snapshots, each
        # equal to batch extraction, and the same refresh count.  Hops 13
        # and 61 are not multiples of the coarsest octave stride (2 at 256
        # samples, 4 at 512).
        ticked = IncrementalExtractor(window, config, hop=hop)
        blocked = IncrementalExtractor(window, config, hop=hop)
        tick_buffer = StreamBuffer(capacity=stream.size)
        block_buffer = StreamBuffer(capacity=stream.size)
        values = stream[:1000]
        multi = 0
        for begin in range(0, values.size, chunk):
            block = values[begin: begin + chunk]
            expected = []
            for value in block:
                tick_buffer.append(value)
                ticked.observe(tick_buffer)
                if ticked.ready:
                    expected.append((ticked.features(), ticked.snapshot_start))
            for value in block:
                block_buffer.append(value)
            before = blocked.stats.refreshes
            seen = blocked.observe_block(block_buffer, block.size)
            multi += blocked.stats.refreshes - before > 1
            assert [start for _, start in seen] == [start for _, start in expected]
            for (features, start), (reference, _) in zip(seen, expected):
                assert_features_identical(reference, features)
            for start, features in {start: features for features, start in seen}.items():
                assert_features_identical(
                    extract_salient_features(values[start: start + window], config), features
                )
        assert multi > 0
        assert blocked.stats == ticked.stats

    def test_refresh_cadence_and_snapshot_bookkeeping(self, stream, config):
        window = 64
        extractor = IncrementalExtractor(window, config, hop=16)
        buffer = StreamBuffer(window)
        refresh_starts = []
        for value in stream[:300]:
            buffer.append(value)
            if extractor.observe(buffer):
                refresh_starts.append(extractor.snapshot_start)
        assert refresh_starts[0] == 0
        assert all(b - a == 16 for a, b in zip(refresh_starts, refresh_starts[1:]))
        assert extractor.snapshot_end == refresh_starts[-1] + window - 1

    def test_features_absolute_offsets_positions(self, stream, config):
        window = 64
        extractor = IncrementalExtractor(window, config)
        buffer = StreamBuffer(window)
        for value in stream[200:200 + 2 * window]:
            buffer.append(value)
            extractor.observe(buffer)
        start = extractor.snapshot_start
        assert start > 0
        relative = extractor.features()
        absolute = extractor.features_absolute()
        assert len(relative) == len(absolute)
        for rel, abs_ in zip(relative, absolute):
            assert abs_.position == rel.position + start
            assert abs_.scope_start == rel.scope_start + start

    def test_window_size_mismatch_rejected(self, config):
        extractor = IncrementalExtractor(64, config)
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            extractor.refresh(np.zeros(32), 0)


def extractor_hop(window: int, hop: int) -> int:
    """Helper keeping the odd-hop intent readable at the call site."""
    assert hop % 2 == 1
    return hop
