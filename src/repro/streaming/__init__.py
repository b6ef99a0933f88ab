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
    Maintains the DoG scale space (Section 3.1.2) and salient features of
    the trailing window incrementally — bit-identical to batch
    re-extraction, at a fraction of the convolution work.
:class:`SpringMatcher`
    SPRING-style subsequence DTW: one carried DP column reports
    variable-length, non-overlapping match intervals under a threshold.
:class:`SlidingWindowMatcher`
    Fixed-window constrained DTW under any of the paper's constraint
    families (Sections 3.3.1–3.3.3) behind the LB_Kim / LB_Keogh /
    band-envelope / early-abandon cascade, run over a block of windows
    at once.
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
