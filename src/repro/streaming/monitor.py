"""StreamMonitor: multiplexed online pattern monitoring over many streams.

This is the streaming subsystem's front door: register any number of
unbounded streams and query patterns, push samples, and collect
:class:`~repro.streaming.subsequence.StreamMatch` reports.  Per
(stream, pattern) pair the monitor instantiates either a
:class:`~repro.streaming.subsequence.SpringMatcher` (variable-length
subsequence matches, SPRING semantics) or a
:class:`~repro.streaming.subsequence.SlidingWindowMatcher` (fixed-length
windows under any of the paper's constraint families, guarded by the
lower-bound cascade), shares one :class:`StreamBuffer` per stream
across all its matchers, and keeps per-pattern
:class:`~repro.streaming.subsequence.StreamStats`.

A chunk is ingested in blocks: every matcher scores a block's windows
together, and the matches are merged back into the order a tick-by-tick
loop would report them in.

The design mirrors the paper's cost split (Section 3.4): everything that
depends only on the pattern (salient features, LB envelopes, Kim
extrema, the range-extrema table of the band-envelope bound) is computed
once at registration; per-block work is bounds first, dynamic
programming only when a bound fails to prune.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_series
from ..core.bands import parse_constraint_spec
from ..core.config import SDTWConfig
from ..exceptions import ValidationError
from .buffer import StreamBuffer
from .incremental import IncrementalExtractor
from .subsequence import (
    SlidingWindowMatcher,
    SpringMatcher,
    StreamMatch,
    StreamStats,
)

_MODES = ("spring", "sliding")


def _monitors(spec: dict, stream: str) -> bool:
    """True when the pattern registered as *spec* monitors *stream*."""
    return spec["streams"] is None or stream in spec["streams"]


class StreamMonitor:
    """Monitor unbounded streams for registered query patterns under sDTW.

    Parameters
    ----------
    config:
        sDTW configuration shared by all sliding matchers (band widths,
        pointwise distance, scale-space/descriptor settings for adaptive
        constraints).
    prune:
        Master switch for the LB_Kim / LB_Keogh stages of sliding
        matchers; pruning is exact (bounds are admissible), so disabling
        it only changes speed, never which matches are reported.
    early_abandon:
        Whether sliding matchers stop the DP as soon as a whole row
        exceeds the threshold.
    buffer_margin:
        Extra ring-buffer capacity beyond the longest registered pattern.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.streaming import StreamMonitor
    >>> monitor = StreamMonitor()
    >>> monitor.add_stream("sensor")
    'sensor'
    >>> pattern = np.sin(np.linspace(0, 6.28, 32))
    >>> monitor.add_pattern(pattern, name="sine", threshold=2.0)
    'sine'
    >>> hits = monitor.extend("sensor", np.concatenate([np.zeros(10), pattern]))
    """

    def __init__(
        self,
        config: Optional[SDTWConfig] = None,
        *,
        prune: bool = True,
        early_abandon: bool = True,
        buffer_margin: int = 64,
    ) -> None:
        self.config = config if config is not None else SDTWConfig()
        self.prune = bool(prune)
        self.early_abandon = bool(early_abandon)
        self.buffer_margin = int(buffer_margin)
        self._buffers: Dict[str, StreamBuffer] = {}
        self._patterns: Dict[str, dict] = {}
        # (stream, pattern) -> matcher
        self._matchers: Dict[Tuple[str, str], object] = {}
        # Adaptive-constraint matchers of the same window length on the
        # same stream share one incremental extractor, whose snapshots
        # extend() takes once per block for all of them, so the
        # scale-space maintenance is paid once per stream, not once per
        # pattern.
        self._extractors: Dict[Tuple[str, int, Optional[int]], IncrementalExtractor] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def add_stream(self, name: Optional[str] = None, *, capacity: Optional[int] = None) -> str:
        """Register a stream; returns its name."""
        if name is None:
            counter = len(self._buffers)
            name = f"stream-{counter:03d}"
            # Removals make len() non-monotone; skip surviving names.
            while name in self._buffers:
                counter += 1
                name = f"stream-{counter:03d}"
        name = str(name)
        if name in self._buffers:
            raise ValidationError(f"stream {name!r} is already registered")
        if capacity is None:
            longest = max(
                (p["values"].size for p in self._patterns.values()), default=0
            )
            # Generous floor so patterns registered after the stream still
            # fit; truly long patterns need an explicit capacity.
            capacity = max(longest + self.buffer_margin, 512)
        buffer = StreamBuffer(capacity)
        for pattern_name, spec in self._patterns.items():
            if _monitors(spec, name) and spec["values"].size > buffer.capacity:
                raise ValidationError(
                    f"stream {name!r} would retain only {buffer.capacity} "
                    f"samples but pattern {pattern_name!r} needs "
                    f"{spec['values'].size}"
                )
        self._buffers[name] = buffer
        for pattern_name in self._patterns:
            self._attach(name, pattern_name)
        return name

    def add_pattern(
        self,
        values: Union[Sequence[float], np.ndarray],
        *,
        threshold: float,
        name: Optional[str] = None,
        mode: str = "spring",
        constraint: str = "fc,fw",
        streams: Optional[Sequence[str]] = None,
        extractor_hop: Optional[int] = None,
    ) -> str:
        """Register a query pattern; returns its name.

        Parameters
        ----------
        values:
            The pattern series.
        threshold:
            Match threshold ε (subsequences at distance ``<= ε`` match).
        name:
            Pattern label (auto-generated when omitted).
        mode:
            ``"spring"`` for SPRING variable-length subsequence matching,
            ``"sliding"`` for fixed-window constrained matching with the
            lower-bound cascade.
        constraint:
            Constraint family for sliding mode (``"full"``, ``"fc,fw"``,
            ``"itakura"``, or any sDTW adaptive family such as
            ``"ac,aw"``); ignored in spring mode.
        streams:
            Streams to monitor (default: all current and future streams
            monitor every pattern).
        extractor_hop:
            Feature-refresh cadence for adaptive constraints (see
            :class:`~repro.streaming.incremental.IncrementalExtractor`).
        """
        mode = str(mode).strip().lower()
        if mode not in _MODES:
            raise ValidationError(
                f"unknown monitoring mode {mode!r}; choose one of {_MODES}"
            )
        array = as_series(values, "pattern")
        if name is None:
            counter = len(self._patterns)
            name = f"pattern-{counter:03d}"
            # Removals make len() non-monotone; skip surviving names.
            while name in self._patterns:
                counter += 1
                name = f"pattern-{counter:03d}"
        name = str(name)
        if name in self._patterns:
            raise ValidationError(f"pattern {name!r} is already registered")
        self._patterns[name] = {
            "values": array,
            "threshold": float(threshold),
            "mode": mode,
            "constraint": constraint,
            "streams": tuple(streams) if streams is not None else None,
            "extractor_hop": extractor_hop,
        }
        for stream_name, buffer in self._buffers.items():
            if buffer.capacity < array.size:
                raise ValidationError(
                    f"stream {stream_name!r} retains only {buffer.capacity} "
                    f"samples but pattern {name!r} needs {array.size}; "
                    "register long patterns before streams or pass an "
                    "explicit capacity"
                )
            self._attach(stream_name, name)
        return name

    def _attach(self, stream: str, pattern: str) -> None:
        spec = self._patterns[pattern]
        if not _monitors(spec, stream):
            return
        key = (stream, pattern)
        if key in self._matchers:
            return
        if spec["mode"] == "spring":
            matcher = SpringMatcher(
                spec["values"], spec["threshold"],
                distance=self.config.pointwise_distance, name=pattern,
            )
        else:
            matcher = SlidingWindowMatcher(
                spec["values"], spec["threshold"],
                constraint=spec["constraint"], config=self.config, name=pattern,
                use_lb_kim=self.prune, use_lb_keogh=self.prune,
                early_abandon=self.early_abandon,
                extractor_hop=spec["extractor_hop"],
                extractor=self._shared_extractor(stream, spec),
            )
        self._matchers[key] = matcher

    def _shared_extractor(self, stream: str, spec: dict) -> Optional[IncrementalExtractor]:
        """One extractor per (stream, window length, hop) for adaptive bands."""
        constraint = spec["constraint"]
        if isinstance(constraint, str) and constraint.strip().lower().replace(
            " ", ""
        ) in ("full", "itakura"):
            return None
        parsed = parse_constraint_spec(constraint)
        if parsed.core != "adaptive" and parsed.width != "adaptive":
            return None
        key = (stream, int(spec["values"].size), spec["extractor_hop"])
        if key not in self._extractors:
            self._extractors[key] = IncrementalExtractor(
                spec["values"].size, self.config, hop=spec["extractor_hop"]
            )
        return self._extractors[key]

    def remove_pattern(self, name: str) -> None:
        """Unregister a pattern and drop its matchers on every stream.

        Pending (unsettled) candidates of the removed matchers are
        discarded; call :meth:`finalize` first to flush them.
        """
        name = str(name)
        if name not in self._patterns:
            known = ", ".join(sorted(self._patterns)) or "(none)"
            raise ValidationError(
                f"unknown pattern {name!r}; registered: {known}"
            )
        del self._patterns[name]
        for key in [k for k in self._matchers if k[1] == name]:
            del self._matchers[key]

    def remove_stream(self, name: str) -> None:
        """Unregister a stream, dropping its buffer, matchers and extractors."""
        self._require_stream(name)
        del self._buffers[name]
        for key in [k for k in self._matchers if k[0] == name]:
            del self._matchers[key]
        for key in [k for k in self._extractors if k[0] == name]:
            del self._extractors[key]

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def _require_stream(self, stream: str) -> StreamBuffer:
        try:
            return self._buffers[stream]
        except KeyError as exc:
            known = ", ".join(sorted(self._buffers)) or "(none)"
            raise ValidationError(
                f"unknown stream {stream!r}; registered: {known}"
            ) from exc

    def push(self, stream: str, value: float) -> List[StreamMatch]:
        """Feed one sample into *stream*; returns matches settled this tick."""
        return self.extend(stream, [value])

    def extend(self, stream: str, values: Union[Sequence[float], np.ndarray]) -> List[StreamMatch]:
        """Feed many samples into *stream* in order; returns settled matches.

        The chunk is accepted or rejected whole: it must be
        one-dimensional and finite, and nothing is ingested otherwise.  It
        is then ingested in blocks small enough that every window of a
        block is still in the ring buffer.  Each block's extractor
        snapshots are taken once per extractor, tick by tick, and every
        matcher scores the whole block; the matches come back ordered by
        the tick at which they settled, then by matcher registration.
        """
        buffer = self._require_stream(stream)
        chunk = np.asarray(values, dtype=float)
        if chunk.ndim != 1:
            raise ValidationError(
                f"stream chunk must be one-dimensional, got shape {chunk.shape}"
            )
        if not np.isfinite(chunk).all():
            raise ValidationError("stream chunk contains NaN or Inf values")
        matchers = [
            (order, matcher)
            for order, ((stream_name, _), matcher) in enumerate(self._matchers.items())
            if stream_name == stream
        ]
        # add_stream and add_pattern keep every pattern within the capacity.
        longest = max((matcher.window_length for _, matcher in matchers), default=1)
        block = buffer.capacity - longest + 1
        settled: List[Tuple[int, int, StreamMatch]] = []
        for begin in range(0, chunk.size, block):
            part = chunk[begin: begin + block]
            first = buffer.total
            buffer.extend(part)
            snapshots: Dict[IncrementalExtractor, list] = {}
            for order, matcher in matchers:
                if isinstance(matcher, SpringMatcher):
                    for tick, value in enumerate(part.tolist(), first):
                        settled.extend(
                            (tick, order, match) for match in matcher.update(value)
                        )
                    continue
                # Snapshots are taken once per extractor: a matcher that
                # drove a shared extractor over the block itself would
                # leave the next matcher only the block's last snapshot.
                extractor = matcher.extractor
                if extractor is not None and extractor not in snapshots:
                    snapshots[extractor] = extractor.observe_block(buffer, part.size)
                settled.extend(
                    (tick, order, match)
                    for tick, match in matcher.score_block(
                        buffer, part.size, snapshots.get(extractor)
                    )
                )
        settled.sort(key=lambda item: item[:2])
        return [replace(match, stream=stream) for _, _, match in settled]

    def finalize(self, stream: Optional[str] = None) -> List[StreamMatch]:
        """Flush pending candidates (end of stream / shutdown)."""
        matches: List[StreamMatch] = []
        for (stream_name, _), matcher in self._matchers.items():
            if stream is not None and stream_name != stream:
                continue
            matches.extend(
                replace(m, stream=stream_name) for m in matcher.finalize()
            )
        return matches

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def streams(self) -> List[str]:
        """Registered stream names, sorted."""
        return sorted(self._buffers)

    def patterns(self) -> List[str]:
        """Registered pattern names, sorted."""
        return sorted(self._patterns)

    def buffer(self, stream: str) -> StreamBuffer:
        """The ring buffer backing one stream."""
        return self._require_stream(stream)

    def matcher(self, stream: str, pattern: str):
        """The matcher instance monitoring one (stream, pattern) pair."""
        try:
            return self._matchers[(stream, pattern)]
        except KeyError as exc:
            raise ValidationError(
                f"pattern {pattern!r} is not monitoring stream {stream!r}"
            ) from exc

    def stats(self, pattern: str, stream: Optional[str] = None) -> StreamStats:
        """Work accounting for one pattern (summed over streams by default)."""
        records = [
            matcher.stats
            for (stream_name, pattern_name), matcher in self._matchers.items()
            if pattern_name == pattern
            and (stream is None or stream_name == stream)
        ]
        if not records:
            raise ValidationError(
                f"pattern {pattern!r} has no matchers"
                + (f" on stream {stream!r}" if stream is not None else "")
            )
        total = StreamStats()
        for record in records:
            for field_name in (
                "ticks", "evaluated", "pruned_lb_kim", "pruned_lb_keogh",
                "dp_runs", "dp_abandoned", "cells_filled", "total_cells",
                "matches",
            ):
                setattr(
                    total, field_name,
                    getattr(total, field_name) + getattr(record, field_name),
                )
        return total
