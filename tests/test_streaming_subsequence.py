"""Correctness tests for the SPRING and sliding-window stream matchers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.dtw.full import dtw_distance
from repro.streaming.buffer import StreamBuffer
from repro.streaming.subsequence import (
    MatchSuppressor,
    SlidingWindowMatcher,
    SpringMatcher,
)


@pytest.fixture(scope="module")
def pattern():
    return np.sin(np.linspace(0.0, 2.0 * np.pi, 12))


@pytest.fixture(scope="module")
def noisy_stream(pattern):
    rng = np.random.default_rng(5)
    stream = rng.normal(0.0, 0.4, 140)
    stream[30:42] = pattern + rng.normal(0.0, 0.02, 12)
    stream[90:102] = pattern + rng.normal(0.0, 0.02, 12)
    return stream


class TestSpringColumns:
    def test_dp_column_equals_brute_force_windowed_dtw(self, pattern):
        """d[i] must equal min over starts of DTW(pattern[:i+1], x[s..t]).

        The brute force runs full DTW on every (start, prefix) pair — a
        completely independent code path (O(n^2 m^2) overall), so
        agreement certifies the carried-column recurrence.
        """
        rng = np.random.default_rng(9)
        stream = rng.normal(0.0, 0.5, 36)
        m = pattern.size
        # Tiny threshold: nothing is ever reported, so no cells are
        # invalidated and the raw DP columns stay observable.
        matcher = SpringMatcher(pattern, threshold=1e-12)
        for t, value in enumerate(stream):
            matcher.update(value)
            for i in range(m):
                brute = min(
                    dtw_distance(pattern[: i + 1], stream[s: t + 1])
                    for s in range(t + 1)
                )
                assert matcher._d[i] == pytest.approx(brute, abs=1e-9)

    def test_reported_distance_is_true_subsequence_dtw(self, pattern, noisy_stream):
        matcher = SpringMatcher(pattern, threshold=1.0)
        matches = []
        for value in noisy_stream:
            matches.extend(matcher.update(value))
        matches.extend(matcher.finalize())
        assert len(matches) == 2
        for match in matches:
            exact = dtw_distance(pattern, noisy_stream[match.start: match.end + 1])
            assert match.distance == pytest.approx(exact, abs=1e-9)
            assert match.distance <= 1.0
        starts = [m.start for m in matches]
        assert 28 <= starts[0] <= 34
        assert 88 <= starts[1] <= 94

    def test_reported_matches_never_overlap(self, pattern):
        rng = np.random.default_rng(17)
        stream = rng.normal(0.0, 0.3, 400)
        for pos in range(30, 360, 40):
            stream[pos: pos + 12] = pattern + rng.normal(0.0, 0.05, 12)
        matcher = SpringMatcher(pattern, threshold=1.5)
        matches = []
        for value in stream:
            matches.extend(matcher.update(value))
        matches.extend(matcher.finalize())
        assert len(matches) >= 2
        for first, second in zip(matches, matches[1:]):
            assert first.end < second.start

    def test_threshold_boundary_inclusive(self, pattern, noisy_stream):
        """A subsequence at distance exactly ε must match (<=, not <)."""
        probe = SpringMatcher(pattern, threshold=10.0)
        best = np.inf
        for value in noisy_stream:
            for match in probe.update(value):
                best = min(best, match.distance)
        exact = SpringMatcher(pattern, threshold=best)
        hits = []
        for value in noisy_stream:
            hits.extend(exact.update(value))
        hits.extend(exact.finalize())
        assert any(h.distance == pytest.approx(best, abs=0.0) for h in hits)
        below = SpringMatcher(pattern, threshold=best * (1 - 1e-9))
        hits_below = []
        for value in noisy_stream:
            hits_below.extend(below.update(value))
        hits_below.extend(below.finalize())
        assert all(h.distance < best for h in hits_below)

    def test_overlapping_candidates_suppressed_to_local_optimum(self, pattern):
        """Two overlapping sub-threshold windows yield one (best) match."""
        rng = np.random.default_rng(3)
        stream = rng.normal(0.0, 0.35, 80)
        # One embedded occurrence; with a loose threshold, many overlapping
        # subsequences around it qualify.
        stream[40:52] = pattern + rng.normal(0.0, 0.01, 12)
        matcher = SpringMatcher(pattern, threshold=2.5)
        matches = []
        for value in stream:
            matches.extend(matcher.update(value))
        matches.extend(matcher.finalize())
        inside = [m for m in matches if m.start <= 51 and m.end >= 40]
        assert len(inside) == 1
        # The survivor is locally optimal: no overlapping window does better.
        best = inside[0]
        m = pattern.size
        for start in range(max(0, best.start - 6), best.start + 7):
            for end in range(start + m // 2, min(stream.size, start + 2 * m)):
                if start <= best.end and best.start <= end:
                    assert (
                        dtw_distance(pattern, stream[start: end + 1])
                        >= best.distance - 1e-9
                    )

    def test_finalize_flushes_pending_candidate(self, pattern):
        rng = np.random.default_rng(8)
        stream = np.concatenate([
            rng.normal(0.0, 0.4, 30),
            pattern + rng.normal(0.0, 0.02, 12),
        ])
        matcher = SpringMatcher(pattern, threshold=1.0)
        matches = []
        for value in stream:
            matches.extend(matcher.update(value))
        # The occurrence runs to the very end of the stream: it is still a
        # pending candidate until finalize.
        assert matches == []
        flushed = matcher.finalize()
        assert len(flushed) == 1
        assert flushed[0].end == stream.size - 1


class TestSpringBlocks:
    """``update_block`` is the per-tick update run over a block: whatever
    the block size, the carried column, the matches and the stats must be
    those of blocks of one tick."""

    @pytest.fixture(scope="class")
    def busy_stream(self, pattern):
        # Occurrences every 20-40 ticks under a loose threshold: matches
        # settle often, many of them inside a block.
        rng = np.random.default_rng(23)
        stream = rng.normal(0.0, 0.5, 420)
        position = 6
        while position + pattern.size < stream.size:
            stream[position: position + pattern.size] = pattern + rng.normal(
                0.0, 0.05, pattern.size)
            position += int(rng.integers(20, 41))
        return stream

    @staticmethod
    def state(matcher):
        return matcher._d.tobytes(), matcher._s.tobytes()

    @staticmethod
    def key(tick, match):
        return (tick, match.start, match.end, np.float64(match.distance).tobytes())

    def test_blocks_of_every_size_equal_blocks_of_one(self, pattern, busy_stream):
        from repro.streaming.offline import naive_spring_scan

        threshold = 1.5
        reference = SpringMatcher(pattern, threshold)
        states, expected = [], []
        for value in busy_stream:
            expected += [self.key(tick, m) for tick, m in reference.update_block([value])]
            states.append(self.state(reference))
        expected_final = [self.key(-1, m) for m in reference.finalize()]
        offline = naive_spring_scan(busy_stream, pattern, threshold)
        online = expected + expected_final
        assert [k[1:3] for k in online] == [(m.start, m.end) for m in offline]
        assert [np.frombuffer(k[3])[0] for k in online] == pytest.approx(
            [m.distance for m in offline], abs=1e-9)
        assert len(offline) >= 8
        settled_inside = 0
        for size in range(1, 71):
            matcher = SpringMatcher(pattern, threshold)
            got = []
            for begin in range(0, busy_stream.size, size):
                block = busy_stream[begin: begin + size]
                settled = matcher.update_block(block)
                got += [self.key(tick, m) for tick, m in settled]
                settled_inside += sum(tick < begin + block.size - 1 for tick, _ in settled)
                assert self.state(matcher) == states[begin + block.size - 1], size
            assert got == expected, size
            assert [self.key(-1, m) for m in matcher.finalize()] == expected_final
            assert matcher.stats == reference.stats, size
            assert self.state(matcher) == self.state(reference)
        # Matches settle (and invalidate the column) before a block's end.
        assert settled_inside > 100

    @given(
        seed=st.integers(0, 2**16),
        cuts=st.lists(st.integers(1, 90), min_size=1, max_size=12),
        threshold=st.floats(0.5, 6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_cuts_equal_per_tick_updates(self, pattern, seed, cuts, threshold):
        rng = np.random.default_rng(seed)
        stream = rng.normal(0.0, 0.6, 150)
        for position in range(int(rng.integers(0, 20)), 138, 25):
            stream[position: position + pattern.size] = pattern
        per_tick = SpringMatcher(pattern, threshold)
        expected = [m for value in stream for m in per_tick.update(value)]
        blocks = SpringMatcher(pattern, threshold)
        got, begin = [], 0
        for size in cuts * 20:
            if begin >= stream.size:
                break
            got += [m for _, m in blocks.update_block(stream[begin: begin + size])]
            begin += size
        got += [m for _, m in blocks.update_block(stream[begin:])]
        assert got == expected
        assert self.state(blocks) == self.state(per_tick)
        assert blocks.stats == per_tick.stats

    def test_a_rejected_block_consumes_nothing(self, pattern):
        from repro.exceptions import ValidationError

        matcher = SpringMatcher(pattern, threshold=1.0)
        matcher.update_block([0.1, 0.2])
        before = self.state(matcher), matcher.stats.ticks
        for bad in ([0.3, np.nan], [np.inf], [1e300, -np.inf, 0.0]):
            with pytest.raises(ValidationError):
                matcher.update_block(bad)
        with pytest.raises(ValidationError):
            matcher.update_block([[0.3]])
        assert (self.state(matcher), matcher.stats.ticks) == before
        # Squares that overflow are still finite samples.
        matcher.update_block([1e200, -1e200])
        assert matcher.stats.ticks == 4


class TestMatchSuppressor:
    def test_best_of_overlapping_run_wins(self):
        suppressor = MatchSuppressor(window_length=5, threshold=1.0)
        profile = {3: 0.9, 4: 0.5, 5: 0.7}
        emitted = []
        for tick in range(20):
            result = suppressor.observe(tick, profile.get(tick, np.inf))
            if result is not None:
                emitted.append(result)
        final = suppressor.flush()
        if final is not None:
            emitted.append(final)
        assert emitted == [(0, 4, 0.5)]

    def test_non_overlapping_candidates_both_emitted(self):
        suppressor = MatchSuppressor(window_length=4, threshold=1.0)
        emitted = []
        for tick in range(20):
            distance = {5: 0.3, 12: 0.6}.get(tick, np.inf)
            result = suppressor.observe(tick, distance)
            if result is not None:
                emitted.append(result)
        final = suppressor.flush()
        if final is not None:
            emitted.append(final)
        assert emitted == [(2, 5, 0.3), (9, 12, 0.6)]

    def test_pruned_ticks_advance_time(self):
        suppressor = MatchSuppressor(window_length=3, threshold=1.0)
        assert suppressor.observe(0, 0.2) is None
        assert suppressor.observe(1, np.inf) is None
        assert suppressor.observe(2, np.inf) is None
        # tick 3 no longer overlaps the candidate ending at 0.
        assert suppressor.observe(3, np.inf) == (-2, 0, 0.2)


class TestSlidingWindowMatcher:
    @pytest.fixture(scope="class")
    def sliding_setup(self):
        rng = np.random.default_rng(12)
        m = 32
        pattern = np.sin(np.linspace(0.0, 2.0 * np.pi, m)) + 0.2 * np.cos(
            np.linspace(0.0, 9.0, m)
        )
        stream = rng.normal(0.0, 0.4, 500)
        for pos in (80, 240, 420):
            stream[pos: pos + m] = pattern + rng.normal(0.0, 0.03, m)
        config = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))
        return pattern, stream, config

    def run_matcher(self, matcher, stream):
        buffer = StreamBuffer(4 * matcher.window_length)
        matches = []
        for value in stream:
            buffer.append(value)
            matches.extend(matcher.update(buffer))
        matches.extend(matcher.finalize())
        return matches

    def test_finds_embedded_occurrences(self, sliding_setup):
        pattern, stream, config = sliding_setup
        matcher = SlidingWindowMatcher(pattern, 4.0, config=config)
        matches = self.run_matcher(matcher, stream)
        starts = sorted(m.start for m in matches)
        assert len(starts) == 3
        assert all(
            abs(start - pos) <= 2 for start, pos in zip(starts, (80, 240, 420))
        )

    def test_pruning_never_changes_matches(self, sliding_setup):
        """LB_Kim / LB_Keogh / early abandon are exact: identical reports."""
        pattern, stream, config = sliding_setup
        full = SlidingWindowMatcher(
            pattern, 4.0, config=config,
            prune=False, early_abandon=False,
        )
        cascaded = SlidingWindowMatcher(pattern, 4.0, config=config)
        reference = self.run_matcher(full, stream)
        pruned = self.run_matcher(cascaded, stream)
        assert [(m.start, m.end, m.distance) for m in reference] == [
            (m.start, m.end, m.distance) for m in pruned
        ]
        assert cascaded.stats.pruned > 0
        assert cascaded.stats.cells_filled < full.stats.cells_filled

    def test_adaptive_constraint_runs_and_prunes_cells(self, sliding_setup):
        pattern, stream, config = sliding_setup
        matcher = SlidingWindowMatcher(
            pattern, 4.0, constraint="ac,aw", config=config,
        )
        matches = self.run_matcher(matcher, stream[:300])
        assert matcher.extractor is not None
        assert matcher.stats.evaluated > 0
        # The locally relevant band must be narrower than the full grid.
        assert matcher.stats.cells_filled < matcher.stats.total_cells
        for match in matches:
            assert match.distance <= 4.0

    def test_non_boundable_distance_disables_bounds(self, sliding_setup):
        pattern, stream, config = sliding_setup
        from dataclasses import replace

        squared = replace(config, pointwise_distance="squared")
        matcher = SlidingWindowMatcher(pattern, 4.0, config=squared)
        assert not matcher.prune
        self.run_matcher(matcher, stream[:200])
        assert matcher.stats.pruned == 0


class TestSpringOracleAgreement:
    """Regression: the per-tick recompute oracle must replay report-time
    cell invalidations at the tick they happened, not retroactively —
    seeds 2 and 8 used to diverge."""

    @pytest.mark.parametrize("seed", [2, 8, 11, 19])
    def test_oracle_matches_online_on_randomised_streams(self, seed):
        from repro.streaming.offline import naive_spring_scan

        rng = np.random.default_rng(seed)
        m = 8
        pattern = np.sin(np.linspace(0.0, 2.0 * np.pi, m))
        stream = rng.normal(0.0, 0.6, 120)
        threshold = float(rng.uniform(1.0, 7.0))
        matcher = SpringMatcher(pattern, threshold)
        online = []
        for value in stream:
            online.extend(matcher.update(value))
        online.extend(matcher.finalize())
        offline = naive_spring_scan(stream, pattern, threshold)
        assert [(x.start, x.end) for x in online] == [
            (x.start, x.end) for x in offline
        ]
        for a, b in zip(online, offline):
            assert a.distance == pytest.approx(b.distance, abs=1e-9)


class TestNonFiniteSamples:
    def test_spring_matcher_rejects_nan(self, pattern):
        from repro.exceptions import ValidationError

        matcher = SpringMatcher(pattern, threshold=1.0)
        matcher.update(0.5)
        with pytest.raises(ValidationError):
            matcher.update(np.nan)
        with pytest.raises(ValidationError):
            matcher.update(np.inf)

    def test_monitor_push_rejects_nan(self, pattern):
        from repro.exceptions import ValidationError
        from repro.streaming import StreamMonitor

        monitor = StreamMonitor()
        monitor.add_stream("s")
        monitor.add_pattern(pattern, name="p", threshold=1.0, mode="spring")
        monitor.push("s", 0.1)
        with pytest.raises(ValidationError):
            monitor.push("s", float("nan"))
        # A rejected sample must not leave the matcher poisoned.
        matcher = monitor.matcher("s", "p")
        assert np.isfinite(matcher._d[np.isfinite(matcher._d)]).all()
