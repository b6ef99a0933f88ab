"""stream_monitor: online subsequence monitoring of one seeded stream.

In-process, closed loop.  Each op is ``StreamMonitor.extend(stream,
chunk)`` with a fixed chunk of ticks from an ``embed_pattern_stream``
stream.  Three patterns cover the three matcher kinds: SPRING, sliding
fc,fw and sliding ac,aw (through the shared ``IncrementalExtractor``).
The chunk is a multiple of the extractor hop, so every op carries the
same feature-refresh work.  Ops replay the same chunk sequence on every
run with a seed, so their counts must repeat exactly: a fresh monitor
replays a prefix of the ops after the timed phase, a traced run replays
them all, and both must match the timed ops count for count.
"""

from __future__ import annotations

import time

import numpy as np

from common import closed_loop, layer_times, peak_rss_mb
from tracer import SpanRecorder

KINDS = (("spring", "spring", "fc,fw"),
         ("sliding_fcfw", "sliding", "fc,fw"),
         ("sliding_acaw", "sliding", "ac,aw"))
STAT_FIELDS = ("ticks", "evaluated", "pruned_lb_kim", "pruned_lb_keogh",
               "dp_runs", "dp_abandoned", "cells_filled", "total_cells", "matches")


def make_inputs(seed: int, spec: dict):
    from repro.datasets.generators import embed_pattern_stream, make_stream_patterns

    # Patterns are fixed (``data_seed``), so thresholds fit them on every
    # run; the run seed draws the stream they are embedded in.
    patterns = make_stream_patterns(len(KINDS), spec["pattern_length"],
                                    np.random.default_rng(spec["data_seed"]))
    rng = np.random.default_rng(seed)
    stream, truth = embed_pattern_stream(
        spec["stream_length"], patterns, rng,
        occurrences_per_pattern=spec["occurrences_per_pattern"],
        drift_std=spec["drift_std"],
    )
    return patterns, stream, truth


def build(patterns, stream, spec):
    """Register stream and patterns, then ingest up to the first full window."""
    from repro.streaming import StreamMonitor

    monitor = StreamMonitor()
    monitor.add_stream("s")
    for (name, mode, constraint), pattern in zip(KINDS, patterns):
        monitor.add_pattern(pattern, name=name, mode=mode, constraint=constraint,
                            threshold=spec["thresholds"][name],
                            extractor_hop=spec["hop"])
    matches = monitor.extend("s", stream[:spec["pattern_length"]])
    return monitor, matches


def same_matches(online, offline) -> bool:
    return len(online) == len(offline) and all(
        a.start == b.start and a.end == b.end
        and abs(a.distance - b.distance) <= 1e-9 * max(1.0, abs(b.distance))
        for a, b in zip(online, offline)
    )


def brute_force_mismatches(patterns, stream, truth, spec) -> list:
    """Patterns whose online matches disagree with an offline scan.

    For each pattern, a fresh monitor holding only that pattern reads a
    short segment of the stream around the pattern's first ground-truth
    occurrence; its matches must equal those of the per-tick recompute
    scan in ``repro.streaming.offline`` and must not be empty.  The
    segment is short because the SPRING scan is quadratic in its length.
    """
    from repro.streaming import StreamMonitor
    from repro.streaming.offline import naive_sliding_scan, naive_spring_scan

    m, hop = spec["pattern_length"], spec["hop"]
    wrong = []
    for index, ((name, mode, constraint), pattern) in enumerate(zip(KINDS, patterns)):
        occ = next(o for o in truth if o.pattern_index == index and o.start >= m // 2)
        segment = stream[occ.start - m // 2: occ.end + m + 1]
        threshold = spec["thresholds"][name]
        monitor = StreamMonitor()
        monitor.add_stream("s")
        monitor.add_pattern(pattern, name=name, mode=mode, constraint=constraint,
                            threshold=threshold, extractor_hop=hop)
        online = monitor.extend("s", segment) + monitor.finalize("s")
        if mode == "spring":
            offline = naive_spring_scan(segment, pattern, threshold)
        else:
            offline, _ = naive_sliding_scan(segment, pattern, threshold,
                                            constraint=constraint, extractor_hop=hop)
        if not online or not same_matches(online, offline):
            wrong.append(name)
    return wrong


def run(*, seed: int, seconds: float, trace: bool, spec: dict, root,
        state_dir) -> dict:
    patterns, stream, truth = make_inputs(seed, spec)
    m, chunk = spec["pattern_length"], spec["chunk"]
    if chunk % spec["hop"]:
        raise ValueError("chunk must be a multiple of the extractor hop")
    stream_ops = (stream.size - m) // chunk

    # Warm-up on a throwaway monitor: numpy and interpreter caches fill
    # before anything is timed.
    warm, _ = build(patterns, stream, spec)
    for i in range(spec["warmup_ops"]):
        warm.extend("s", stream[m + i * chunk: m + (i + 1) * chunk])

    def timed_setups() -> tuple:
        times = []
        for _ in range(spec["setups"]):
            started = time.perf_counter()
            built = build(patterns, stream, spec)
            times.append(time.perf_counter() - started)
        return times, built

    setup_s, (monitor, found) = timed_setups()

    def phase(monitor, found, recorder=None, max_ops=stream_ops,
              limit_s=seconds):
        signatures = []

        def op(index: int):
            matches = monitor.extend("s", stream[m + index * chunk:
                                                 m + (index + 1) * chunk])
            found.extend(matches)
            signatures.append([
                [getattr(monitor.stats(name), f) for f in STAT_FIELDS]
                for name, _, _ in KINDS
            ] + [[(x.pattern, x.start, x.end, x.distance) for x in matches]])
            return matches

        ops, wall_s = closed_loop(op, limit_s, max_ops=max_ops, recorder=recorder)
        return ops, wall_s, signatures

    ops, wall_s, signatures = phase(monitor, found)
    ticks = m + len(ops) * chunk
    # Set-up is timed again after the timed phase: host speed drifts over
    # tens of seconds, and one burst of set-ups would sample one state.
    more_setups, (fresh, fresh_found) = timed_setups()
    setup_s += more_setups
    found.extend(monitor.finalize())
    stats = {name: monitor.stats(name) for name, _, _ in KINDS}

    # Exact repeat: a fresh monitor replays the first ops, untimed.
    prefix = spec["repeat_prefix_ops"]
    _, _, repeated = phase(fresh, fresh_found, max_ops=prefix, limit_s=float("inf"))
    repeats = signatures[:prefix] == repeated
    wrong = brute_force_mismatches(patterns, stream, truth, spec)
    # A third burst of set-ups, seconds after the second.
    setup_s += timed_setups()[0]

    # Quality: share of the ground-truth occurrences in a fixed prefix of
    # the stream that a match of the same pattern overlaps.
    scored = spec["recall_ticks"]
    settled = [occ for occ in truth if occ.end < scored - m]
    hits = sum(
        1 for occ in settled
        if any(x.pattern == KINDS[occ.pattern_index][0] and occ.hit_by(x.start, x.end)
               for x in found)
    )
    recall = hits / len(settled)
    result = {
        "setup_s": setup_s,
        "ops": ops,
        "wall_s": wall_s,
        "recall": recall,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        traced_monitor, traced_found = build(patterns, stream, spec)
        recorder = SpanRecorder()
        with recorder:
            traced, _, traced_signatures = phase(traced_monitor, traced_found,
                                                 recorder)
        recorder.write(str(state_dir / f"spans-stream_monitor-seed{seed}.jsonl"))
        common = min(len(signatures), len(traced_signatures))
        repeats = repeats and signatures[:common] == traced_signatures[:common]
        layers, layer_sum = layer_times(recorder)
        traced_stats = [traced_monitor.stats(name) for name, _, _ in KINDS]
        sliding = traced_stats[1:]
        cells = sum(s.cells_filled for s in sliding)
        dp_seconds = sum(end - start for _, _, _, name, start, end in recorder.spans
                         if name.startswith("dtw."))
        layers.update({
            "dtw.cells_per_op": cells / len(traced),
            "dtw.cells_per_s": cells / dp_seconds,
            "streaming.prune_rate": (sum(s.pruned for s in sliding)
                                     / sum(s.evaluated for s in sliding)),
            "streaming.dp_runs_per_op": sum(
                s.dp_runs + s.dp_abandoned for s in sliding) / len(traced),
            "streaming.extractor_reuse_ratio": float(np.mean(
                [e.stats.reuse_fraction
                 for e in traced_monitor._extractors.values()])),
            "streaming.matches": float(sum(s.matches for s in traced_stats)),
        })
        result.update({
            "layers": layers,
            "layer_sum_ms": layer_sum,
            "traced_latencies_s": [e["latency_s"] for e in traced if e["ok"]],
        })
    result["correct"] = (len(signatures) >= prefix and ticks >= scored and repeats
                         and not wrong and recall >= spec["min_recall"])
    result["notes"] = {
        "ticks_processed": ticks,
        "occurrences_scored": len(settled),
        "occurrences_hit": hits,
        "counts_repeat": repeats,
        "brute_force_mismatches": wrong,
        "stats": {name: {f: getattr(s, f) for f in STAT_FIELDS}
                  for name, s in stats.items()},
        "repeat_rate": spec["repeat_rate"],
    }
    return result
