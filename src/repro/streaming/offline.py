"""Offline reference scans for the streaming matchers.

These implementations recompute everything from scratch at every tick —
exactly what the incremental matchers avoid — and exist for two reasons:

* **Correctness oracles.**  The equivalence tests assert that
  :class:`~repro.streaming.monitor.StreamMonitor` reports the same match
  intervals and distances as these scans on identical data; because the
  scans share no per-tick state with the online path (full window DP per
  tick, batch feature extraction per refresh), agreement certifies the
  carried DP columns, incremental envelopes and incremental features.
* **Naive baselines.**  ``benchmarks/bench_streaming.py`` measures the
  online monitor's throughput against these per-tick recompute scans —
  the streaming analogue of the paper's time-gain comparisons
  (Section 4.2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_series
from ..core.bands import resolve_constraint
from ..core.config import SDTWConfig
from ..core.features import extract_salient_features
from ..dtw.banded import banded_dtw
from ..dtw.distances import PointwiseDistance, get_pointwise_distance
from .subsequence import (
    MatchSuppressor,
    StreamMatch,
    build_stream_band,
    shift_snapshot_features,
)


def naive_spring_scan(
    values: Union[Sequence[float], np.ndarray],
    pattern: Union[Sequence[float], np.ndarray],
    threshold: float,
    *,
    distance: Union[str, PointwiseDistance, None] = None,
    name: str = "pattern",
    stream: str = "",
) -> List[StreamMatch]:
    """SPRING semantics computed by per-tick full-prefix recomputation.

    For every tick the whole star-padded DP table over the prefix seen so
    far is rebuilt from scratch (O(t·m) per tick, O(n²·m) total) and the
    SPRING reporting discipline is replayed on top.  Kept deliberately
    naive — this is the "no carried state" strawman the streaming matcher
    is benchmarked against.
    """
    xs = as_series(values, "values")
    ys = as_series(pattern, "pattern")
    func = get_pointwise_distance(distance)
    m = ys.size
    threshold = float(threshold)

    best = np.inf
    best_start = best_end = -1
    # Report-time invalidations, recorded as (tick applied, blocked end).
    # Each rebuild must replay them at exactly the tick they happened:
    # killing earlier would reroute DP paths to alternative starts the
    # online matcher never considered (its cells were still alive then).
    kills: List[Tuple[int, int]] = []
    matches: List[StreamMatch] = []
    for t in range(xs.size):
        # Rebuild the whole DP over the prefix x[0..t] from scratch.
        d = np.full(m, np.inf)
        s = np.zeros(m, dtype=int)
        for u in range(t + 1):
            cost = func(xs[u], ys)
            d_new = np.empty(m)
            s_new = np.empty(m, dtype=int)
            for i in range(m):
                # Diagonal predecessor (u-1, i-1); the virtual star-padding
                # cell (distance 0, start u) for the first pattern row.
                if i == 0:
                    best_d, best_s = 0.0, u
                else:
                    best_d, best_s = d[i - 1], int(s[i - 1])
                # Vertical predecessor (u-1, i).
                if d[i] < best_d:
                    best_d, best_s = d[i], int(s[i])
                # Horizontal predecessor (u, i-1), same stream sample.
                if i > 0 and d_new[i - 1] < best_d:
                    best_d, best_s = d_new[i - 1], int(s_new[i - 1])
                d_new[i] = cost[i] + best_d
                s_new[i] = best_s
            for kill_tick, blocked_end in kills:
                if kill_tick == u:
                    d_new[s_new <= blocked_end] = np.inf
            d, s = d_new, s_new
        if best <= threshold:
            blocked = (d < best) & (s <= best_end)
            if not blocked.any():
                matches.append(
                    StreamMatch(pattern=name, stream=stream,
                                start=best_start, end=best_end, distance=best)
                )
                kills.append((t, best_end))
                d = np.where(s <= best_end, np.inf, d)
                best, best_start, best_end = np.inf, -1, -1
        if d[m - 1] <= threshold and d[m - 1] < best:
            best = float(d[m - 1])
            best_start = int(s[m - 1])
            best_end = t
    if best <= threshold:
        matches.append(
            StreamMatch(pattern=name, stream=stream,
                        start=best_start, end=best_end, distance=best)
        )
    return matches


def calibrate_thresholds(
    values: Union[Sequence[float], np.ndarray],
    patterns: Sequence[np.ndarray],
    truth: Sequence,
    config: Optional[SDTWConfig] = None,
    *,
    mode: str = "sliding",
    constraint: str = "fc,fw",
    slack: float = 1.3,
    itakura_max_slope: float = 2.0,
):
    """Per-pattern match thresholds from embedded ground-truth occurrences.

    The threshold for pattern *i* is ``slack`` times the largest distance
    between the pattern and its own embedded (warped, noisy) occurrences
    — guaranteeing the occurrences are matchable while keeping the
    background prunable.  Shared by the CLI and the streaming benchmark
    so their calibration policies cannot drift apart.
    """
    from ..core.sdtw import SDTW
    from ..dtw.full import dtw_distance

    xs = as_series(values, "values")
    config = config if config is not None else SDTWConfig()
    engine = SDTW(config)
    # Spring mode ignores the constraint, as the monitor does.
    resolved = resolve_constraint(constraint) if mode != "spring" else None
    thresholds = {}
    for index, pattern in enumerate(patterns):
        ys = as_series(pattern, f"patterns[{index}]")
        distances = []
        for occ in truth:
            if occ.pattern_index != index:
                continue
            if mode == "spring":
                distances.append(
                    dtw_distance(ys, xs[occ.start: occ.end + 1])
                )
                continue
            m = ys.size
            start = min(occ.start, xs.size - m)
            window = xs[start: start + m]
            band = resolved.band(m, m, config, itakura_max_slope)
            if band is not None:
                distances.append(
                    banded_dtw(
                        window, ys, band, config.pointwise_distance,
                        return_path=False,
                    ).distance
                )
            else:
                distances.append(engine.distance(window, ys, resolved).distance)
        thresholds[index] = slack * max(distances) if distances else 1.0
    return thresholds


def naive_sliding_profile(
    values: Union[Sequence[float], np.ndarray],
    pattern: Union[Sequence[float], np.ndarray],
    *,
    constraint: str = "fc,fw",
    config: Optional[SDTWConfig] = None,
    itakura_max_slope: float = 2.0,
    extractor_hop: Optional[int] = None,
) -> np.ndarray:
    """Per-tick window distances via full recomputation (no carried state).

    Entry ``t`` is the constrained DTW distance between the trailing
    window ``values[t-m+1 .. t]`` and the pattern (``inf`` for ticks
    before the first full window).  Every tick recomputes the band and the
    whole DP; adaptive constraints re-extract window features with the
    batch pipeline on the same hop cadence the online matcher uses.
    """
    xs = as_series(values, "values")
    ys = as_series(pattern, "pattern")
    config = config if config is not None else SDTWConfig()
    m = ys.size
    profile = np.full(xs.size, np.inf)

    resolved = resolve_constraint(constraint)
    shared_band = resolved.band(m, m, config, itakura_max_slope)
    pattern_features = None
    if shared_band is None:
        pattern_features = extract_salient_features(ys, config)

    if pattern_features is not None:
        # Mirror IncrementalExtractor's refresh cadence with batch
        # extraction: first refresh at the first full window, then every
        # hop ticks.
        from .incremental import IncrementalExtractor

        probe = IncrementalExtractor(m, config, hop=extractor_hop)
        hop = probe.hop
        snapshot_features: Sequence = ()
        snapshot_start = None

    for t in range(m - 1, xs.size):
        window = xs[t - m + 1: t + 1]
        if shared_band is not None:
            band = shared_band
        else:
            start = t - m + 1
            if snapshot_start is None or start - snapshot_start >= hop:
                snapshot_start = start
                snapshot_features = extract_salient_features(window, config)
            window_features = shift_snapshot_features(
                snapshot_features, start - snapshot_start, m
            )
            band = build_stream_band(
                resolved, window_features, pattern_features, m, m, config
            )
        profile[t] = banded_dtw(
            window, ys, band, config.pointwise_distance, return_path=False
        ).distance
    return profile


def naive_sliding_scan(
    values: Union[Sequence[float], np.ndarray],
    pattern: Union[Sequence[float], np.ndarray],
    threshold: float,
    *,
    constraint: str = "fc,fw",
    config: Optional[SDTWConfig] = None,
    itakura_max_slope: float = 2.0,
    extractor_hop: Optional[int] = None,
    name: str = "pattern",
    stream: str = "",
) -> Tuple[List[StreamMatch], np.ndarray]:
    """Offline sliding-window sDTW scan: profile + suppressed matches.

    Returns the per-tick distance profile and the non-overlapping matches
    obtained by feeding it through the shared
    :class:`~repro.streaming.subsequence.MatchSuppressor` policy — the
    reference the online :class:`~repro.streaming.monitor.StreamMonitor`
    must reproduce exactly.
    """
    xs = as_series(values, "values")
    ys = as_series(pattern, "pattern")
    profile = naive_sliding_profile(
        xs, ys, constraint=constraint, config=config,
        itakura_max_slope=itakura_max_slope, extractor_hop=extractor_hop,
    )
    suppressor = MatchSuppressor(ys.size, float(threshold))
    matches: List[StreamMatch] = []

    def wrap(emitted):
        start, end, dist = emitted
        return StreamMatch(
            pattern=name, stream=stream, start=start, end=end, distance=dist
        )

    for t in range(xs.size):
        emitted = suppressor.observe(t, float(profile[t]))
        if emitted is not None:
            matches.append(wrap(emitted))
    final = suppressor.flush()
    if final is not None:
        matches.append(wrap(final))
    return matches, profile
