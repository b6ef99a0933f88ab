"""Stdlib-only wall-clock sampling profiler.

A background thread wakes every ``interval_seconds``, reads the stack
of every (or one selected) interpreter thread through
``sys._current_frames()`` and accumulates the frames as collapsed
stacks — the ``a;b;c count`` text format consumed by flame-graph
tooling.  Nothing is instrumented and no dependency is imported: the
profiled code runs unmodified, paying only for the GIL handoffs the
sampler's reads force.  At the default 5 ms interval that overhead is
well under 10% on the CPU-bound DP paths this library cares about
(documented and asserted by ``tests/test_diagnostics.py``).

A busy thread holds the GIL until the interpreter's switch interval
forces a handoff, so at the default 5 ms switch interval the sampler
can wake far less often than asked.  While sampling, the switch
interval is therefore lowered to at most the sampling interval, and
restored on stop.  Each report carries its ``coverage``, samples taken
over samples asked for, so an under-sampled window shows.

This is a *statistical wall-clock* profiler: a frame's sample count is
proportional to the wall time its thread spent inside it (sleeping or
computing alike).  That is exactly the operator question for a slow
query — "where did the time go" — and complements the deterministic
per-stage accounting of :class:`repro.telemetry.trace.QueryTrace`,
which knows the *stages* but not the Python frames inside them.

Surfaces: ``repro workspace query --profile`` attaches a profiler to a
single query batch; ``repro workspace profile`` records a whole replay
window; both print collapsed stacks plus a self-time table.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ProfileReport", "SamplingProfiler"]


def _frame_label(code) -> str:
    """``path/inside/package.py:function`` with the path shortened.

    Paths inside this package are cut at the last ``repro/`` component
    so collapsed stacks read as ``repro/dtw/banded.py:banded_sdtw``
    wherever the tree is installed; foreign frames keep their basename.
    """
    filename = code.co_filename.replace("\\", "/")
    marker = filename.rfind("/repro/")
    if marker >= 0:
        short = filename[marker + 1:]
    else:
        short = filename.rsplit("/", 1)[-1]
    return f"{short}:{code.co_name}"


@dataclass
class ProfileReport:
    """Accumulated samples of one profiling window.

    ``stacks`` maps root-first frame tuples to sample counts; one
    sample is one observation of one thread, so with a single profiled
    thread ``num_samples`` approximates ``duration / interval``.
    """

    stacks: Dict[Tuple[str, ...], int] = field(default_factory=dict)
    num_samples: int = 0
    duration_seconds: float = 0.0
    interval_seconds: float = 0.0
    sampler_seconds: float = 0.0

    @property
    def coverage(self) -> float:
        """Samples taken over the ``duration / interval`` asked for.

        With one profiled thread, 1.0 means the sampler woke on every
        interval; a low value means the profile rests on fewer samples
        than the interval promises (for instance, the sampler starved
        for the GIL).
        """
        if self.duration_seconds <= 0.0 or self.interval_seconds <= 0.0:
            return 0.0
        return self.num_samples / (self.duration_seconds / self.interval_seconds)

    @property
    def sampler_overhead(self) -> float:
        """Fraction of the window the sampler itself was on-CPU."""
        if self.duration_seconds <= 0.0:
            return 0.0
        return self.sampler_seconds / self.duration_seconds

    def collapsed(self) -> str:
        """The stacks in collapsed (``a;b;c count``) text form,
        heaviest first — paste straight into flame-graph tooling."""
        lines = [
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(
                self.stacks.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        return "\n".join(lines)

    def self_seconds(self) -> List[Tuple[str, int]]:
        """Per-frame *self* sample counts (leaf frames only), heaviest
        first — the "where is the CPU actually spinning" table."""
        totals: Dict[str, int] = {}
        for stack, count in self.stacks.items():
            if stack:
                totals[stack[-1]] = totals.get(stack[-1], 0) + count
        return sorted(totals.items(), key=lambda item: (-item[1], item[0]))

    def fraction_matching(self, *needles: str) -> float:
        """Fraction of samples whose stack contains any *needle*.

        The acceptance probe for attribution claims ("≥ 80% of a
        CPU-bound exact query lands in engine/DP frames") — a sample
        matches when any frame label contains any of the substrings.
        """
        if not self.num_samples:
            return 0.0
        matched = sum(
            count
            for stack, count in self.stacks.items()
            if any(needle in frame for frame in stack for needle in needles)
        )
        return matched / self.num_samples

    def to_dict(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "duration_seconds": self.duration_seconds,
            "interval_seconds": self.interval_seconds,
            "sampler_seconds": self.sampler_seconds,
            "coverage": self.coverage,
            "stacks": {
                ";".join(stack): count for stack, count in self.stacks.items()
            },
        }


class SamplingProfiler:
    """Background wall-clock sampler over ``sys._current_frames()``.

    Parameters
    ----------
    interval_seconds:
        Target time between samples (default 5 ms, ~200 Hz).  Shorter
        intervals sharpen attribution at proportionally higher GIL
        overhead.
    threads:
        Thread idents to sample (default: every thread except the
        sampler itself).  Pass ``[threading.get_ident()]`` before
        starting to profile only the calling thread.
    max_depth:
        Frames kept per stack, deepest-first (stacks are truncated at
        the *root* end so the hot leaves always survive).
    """

    def __init__(
        self,
        interval_seconds: float = 0.005,
        *,
        threads: Optional[Sequence[int]] = None,
        max_depth: int = 64,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        self.interval_seconds = float(interval_seconds)
        self.max_depth = max(1, int(max_depth))
        self._threads = None if threads is None else {int(t) for t in threads}
        self._stop = threading.Event()
        self._worker: Optional[threading.Thread] = None
        self._stacks: Dict[Tuple[str, ...], int] = {}
        self._num_samples = 0
        self._sampler_seconds = 0.0
        self._started_at: Optional[float] = None
        self._report: Optional[ProfileReport] = None
        self._saved_switch_interval = 0.0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SamplingProfiler":
        if self._worker is not None:
            raise RuntimeError("this profiler is already running")
        self._stop.clear()
        self._stacks = {}
        self._num_samples = 0
        self._sampler_seconds = 0.0
        self._report = None
        self._started_at = time.perf_counter()
        self._worker = threading.Thread(
            target=self._run, name="repro-sampling-profiler", daemon=True
        )
        self._worker.start()
        self._saved_switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(
            min(self._saved_switch_interval, self.interval_seconds)
        )
        return self

    def stop(self) -> ProfileReport:
        """Stop sampling and return the accumulated report (idempotent)."""
        if self._report is not None:
            return self._report
        if self._worker is None:
            raise RuntimeError("this profiler was never started")
        self._stop.set()
        self._worker.join()
        self._worker = None
        sys.setswitchinterval(self._saved_switch_interval)
        self._report = ProfileReport(
            stacks=dict(self._stacks),
            num_samples=self._num_samples,
            duration_seconds=time.perf_counter() - (self._started_at or 0.0),
            interval_seconds=self.interval_seconds,
            sampler_seconds=self._sampler_seconds,
        )
        return self._report

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Sampler thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        own = threading.get_ident()
        targets = self._threads
        while not self._stop.wait(self.interval_seconds):
            tick = time.perf_counter()
            frames = sys._current_frames()
            try:
                for ident, frame in frames.items():
                    if ident == own:
                        continue
                    if targets is not None and ident not in targets:
                        continue
                    stack: List[str] = []
                    while frame is not None and len(stack) < self.max_depth:
                        stack.append(_frame_label(frame.f_code))
                        frame = frame.f_back
                    if not stack:
                        continue
                    key = tuple(reversed(stack))
                    self._stacks[key] = self._stacks.get(key, 0) + 1
                    self._num_samples += 1
            finally:
                del frames  # drop the frame references promptly
            self._sampler_seconds += time.perf_counter() - tick
