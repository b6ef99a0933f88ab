"""Online subsequence sDTW monitoring over unbounded streams.

The streaming subsystem operationalises the paper's amortisation argument
(Section 3.4) in an online setting: salient features, lower-bound
envelopes and DP state are computed once and *carried* across ticks, so
monitoring cost per sample is independent of how much stream has already
been observed.

Components
----------
:class:`StreamBuffer`
    O(1)-append ring storage with zero-copy trailing windows; a block's
    windows are one strided ``(windows, m)`` view.
:class:`IncrementalExtractor`
    Keeps the salient features (Section 3.1.2) of the trailing window,
    refreshed every ``hop`` ticks — all of a block's due windows in one
    extraction pass, with interior descriptors cached — bit-identical to
    batch re-extraction.
:class:`SpringMatcher`
    SPRING-style subsequence DTW: one carried DP column reports
    variable-length, non-overlapping match intervals under a threshold;
    a block of samples is consumed in one call.
:class:`SlidingWindowMatcher`
    Fixed-window constrained DTW under any of the paper's constraint
    families (Sections 3.3.1–3.3.3) behind the LB_Kim / LB_Keogh /
    band-envelope / early-abandon cascade, with the global and band
    envelopes also taken from the pattern's side, run over a block of
    windows at once.
:class:`StreamMonitor`
    Multiplexes many patterns over many streams, ingests each chunk in
    blocks (a chunk is accepted or rejected whole) and keeps per-pattern
    :class:`StreamStats`.
:mod:`repro.streaming.offline`
    Per-tick recompute reference scans (equivalence oracles and naive
    benchmark baselines).
"""

from .buffer import StreamBuffer
from .incremental import ExtractorStats, IncrementalExtractor
from .monitor import StreamMonitor
from .offline import naive_sliding_profile, naive_sliding_scan, naive_spring_scan
from .subsequence import (
    MatchSuppressor,
    SlidingWindowMatcher,
    SpringMatcher,
    StreamMatch,
    StreamStats,
)

__all__ = [
    "ExtractorStats",
    "IncrementalExtractor",
    "MatchSuppressor",
    "SlidingWindowMatcher",
    "SpringMatcher",
    "StreamBuffer",
    "StreamMatch",
    "StreamMonitor",
    "StreamStats",
    "naive_sliding_profile",
    "naive_sliding_scan",
    "naive_spring_scan",
]
