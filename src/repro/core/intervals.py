"""Corresponding interval partitions induced by consistent scope boundaries.

Once inconsistency pruning (Section 3.2.2) has committed an equal number of
scope boundaries on both series, the boundaries partition each series into
the same number of consecutive intervals (Figure 9's intervals A…K).  The
k-th interval of the first series corresponds to the k-th interval of the
second series; the band builders in :mod:`repro.core.bands` use these
corresponding intervals to compute locally relevant cores and widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import ValidationError
from .consistency import ConsistentAlignment


@dataclass(frozen=True)
class Interval:
    """A half-open-by-convention interval ``[start, end]`` in sample indices."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValidationError(
                f"interval end ({self.end}) precedes start ({self.start})"
            )

    @property
    def length(self) -> int:
        """Number of samples spanned (inclusive of both endpoints)."""
        return self.end - self.start + 1

    @property
    def is_empty(self) -> bool:
        """True if the interval has collapsed to a single boundary sample."""
        return self.end == self.start

    def contains(self, index: int) -> bool:
        """True if the sample index falls inside the interval."""
        return self.start <= index <= self.end


@dataclass(frozen=True)
class IntervalPartition:
    """Corresponding interval partitions of two series.

    Attributes
    ----------
    intervals_x:
        Consecutive intervals covering ``[0, n - 1]``.
    intervals_y:
        Consecutive intervals covering ``[0, m - 1]``; same count as
        ``intervals_x`` and corresponding index-by-index.
    n, m:
        Lengths of the two series.
    """

    intervals_x: Tuple[Interval, ...]
    intervals_y: Tuple[Interval, ...]
    n: int
    m: int

    def __post_init__(self) -> None:
        if len(self.intervals_x) != len(self.intervals_y):
            raise ValidationError(
                "interval partitions must have the same number of intervals"
            )
        if not self.intervals_x:
            raise ValidationError("interval partitions must not be empty")

    @property
    def num_intervals(self) -> int:
        """Number of corresponding interval pairs."""
        return len(self.intervals_x)

    def interval_index_for_x(self, i: int) -> int:
        """Index of the interval of the first series containing sample *i*."""
        return _locate(self.intervals_x, i)

    def interval_index_for_y(self, j: int) -> int:
        """Index of the interval of the second series containing sample *j*."""
        return _locate(self.intervals_y, j)

    def interval_indices_for_y(self, indices: np.ndarray) -> np.ndarray:
        """:meth:`interval_index_for_y` for an array of sample indices."""
        return _locate_many(self.intervals_y, indices)

    def corresponding(self, index: int) -> Tuple[Interval, Interval]:
        """The pair of corresponding intervals at partition position *index*."""
        return self.intervals_x[index], self.intervals_y[index]


def _locate(intervals: Sequence[Interval], index: int) -> int:
    """Find the interval containing a sample index (clamping at the ends)."""
    if index <= intervals[0].end:
        return 0
    if index >= intervals[-1].start:
        return len(intervals) - 1
    lo, hi = 0, len(intervals) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        interval = intervals[mid]
        if index < interval.start:
            hi = mid - 1
        elif index > interval.end:
            lo = mid + 1
        else:
            return mid
    return max(0, min(len(intervals) - 1, lo))


def _locate_many(intervals: Sequence[Interval], indices: np.ndarray) -> np.ndarray:
    """:func:`_locate` for many sample indices at once, with the same answers.

    Intervals are consecutive and share their end points.  A sample
    strictly inside an interval lies in no other one, and
    ``np.searchsorted`` over the interval starts finds it.  On a point
    shared by two or more intervals (a boundary, possibly a run of empty
    intervals) :func:`_locate` answers whichever of them its binary search
    reaches first, which depends on the search path; those samples, at
    most one distinct value per boundary, are answered by :func:`_locate`
    itself.
    """
    starts = np.array([iv.start for iv in intervals])
    found = np.maximum(starts.searchsorted(indices, side="right") - 1, 0)
    on_boundary = (found > 0) & (starts[found] == indices)
    if on_boundary.any():
        shared = indices[on_boundary].tolist()
        answers = {index: _locate(intervals, index) for index in set(shared)}
        found[on_boundary] = [answers[index] for index in shared]
    return found


def _boundaries_to_intervals(
    boundaries: Sequence[float], length: int
) -> List[Interval]:
    """Convert sorted boundary positions into consecutive covering intervals.

    Boundaries are rounded to sample indices and deduplicated while
    *preserving multiplicity positions*: each boundary closes the current
    interval and opens the next one, so ``k`` boundaries produce ``k + 1``
    intervals (possibly empty, i.e. single-sample, when boundaries
    coincide or sit at the series ends).
    """
    cuts: List[int] = []
    for b in boundaries:
        idx = int(round(b))
        idx = max(0, min(length - 1, idx))
        cuts.append(idx)
    cuts.sort()
    intervals: List[Interval] = []
    start = 0
    for cut in cuts:
        end = max(start, cut)
        intervals.append(Interval(start=start, end=end))
        start = min(length - 1, end)
    intervals.append(Interval(start=start, end=length - 1))
    return intervals


def build_interval_partition(
    alignment: ConsistentAlignment, n: int, m: int
) -> IntervalPartition:
    """Build the corresponding interval partitions from a consistent alignment.

    Parameters
    ----------
    alignment:
        Output of :func:`repro.core.consistency.prune_inconsistent_pairs`.
        Its two boundary lists have equal length by construction.
    n, m:
        Lengths of the two series.

    Returns
    -------
    IntervalPartition
        With no committed boundaries the partition degenerates to a single
        interval pair covering both series (which yields a plain diagonal
        core and a global width — the graceful fallback the complexity
        discussion in Section 3.4 anticipates).
    """
    if n < 1 or m < 1:
        raise ValidationError("series lengths must be >= 1")
    bx = list(alignment.boundaries_x)
    by = list(alignment.boundaries_y)
    if len(bx) != len(by):
        raise ValidationError(
            "consistent alignment must provide equally many boundaries per series"
        )
    intervals_x = _boundaries_to_intervals(bx, n)
    intervals_y = _boundaries_to_intervals(by, m)
    return IntervalPartition(
        intervals_x=tuple(intervals_x),
        intervals_y=tuple(intervals_y),
        n=n,
        m=m,
    )


def partition_from_boundaries(
    boundaries_x: Sequence[float],
    boundaries_y: Sequence[float],
    n: int,
    m: int,
) -> IntervalPartition:
    """Build a partition directly from two equally long boundary lists.

    Convenience entry point used by tests and by callers that obtain
    boundaries from an external alignment process.
    """
    if len(boundaries_x) != len(boundaries_y):
        raise ValidationError("boundary lists must have equal length")
    intervals_x = _boundaries_to_intervals(list(boundaries_x), n)
    intervals_y = _boundaries_to_intervals(list(boundaries_y), m)
    return IntervalPartition(
        intervals_x=tuple(intervals_x),
        intervals_y=tuple(intervals_y),
        n=n,
        m=m,
    )
