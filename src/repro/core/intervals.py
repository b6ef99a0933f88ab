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
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

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

    def corresponding(self, index: int) -> Tuple[Interval, Interval]:
        """The pair of corresponding intervals at partition position *index*."""
        return self.intervals_x[index], self.intervals_y[index]

    def stack(self) -> "PartitionStack":
        """This partition as a :class:`PartitionStack` of one."""
        starts_x, ends_x, starts_y, ends_y = np.array([
            (ix.start, ix.end, iy.start, iy.end)
            for ix, iy in zip(self.intervals_x, self.intervals_y)
        ]).T
        return PartitionStack(
            starts_x, ends_x, starts_y, ends_y, np.array([self.num_intervals])
        )


class PartitionStack(NamedTuple):
    """The interval bounds of several corresponding partitions as arrays.

    Partition ``w`` holds ``counts[w]`` intervals, stored one partition
    after another in the four bound arrays.  The adaptive band builders
    (:func:`repro.core.bands.build_constraint_bands`) read a stack, so one
    partition and a block of stream windows go through the same code.
    """

    starts_x: np.ndarray
    ends_x: np.ndarray
    starts_y: np.ndarray
    ends_y: np.ndarray
    counts: np.ndarray

    @property
    def firsts(self) -> np.ndarray:
        """Index of each partition's first interval in the bound arrays."""
        return np.cumsum(self.counts) - self.counts


def stack_partitions(
    cuts_x: np.ndarray, cuts_y: np.ndarray, cut_counts: np.ndarray, n: int, m: int
) -> PartitionStack:
    """Partitions of ``n`` and ``m`` samples from their sorted cuts.

    Partition ``w`` is cut at the next ``cut_counts[w]`` entries of each
    cut array (:func:`boundary_cuts`, ascending within a partition): its
    intervals start at 0 and at each cut and end at each cut and at the
    last sample, so ``k`` cuts give ``k + 1`` intervals (empty, i.e.
    single-sample, where cuts coincide or sit at the series ends).
    """
    counts = np.asarray(cut_counts, dtype=np.intp) + 1
    lasts = np.cumsum(counts) - 1
    firsts = lasts - counts + 1
    return PartitionStack(
        _around(cuts_x, firsts, 0), _around(cuts_x, lasts, n - 1),
        _around(cuts_y, firsts, 0), _around(cuts_y, lasts, m - 1),
        counts,
    )


def _around(cuts: np.ndarray, at: np.ndarray, value: int) -> np.ndarray:
    """*cuts* in order, with *value* inserted at each final position *at*."""
    out = np.full(cuts.size + at.size, value, dtype=np.intp)
    keep = np.ones(out.size, dtype=bool)
    keep[at] = False
    out[keep] = cuts
    return out


def boundary_cuts(boundaries: np.ndarray, length: int) -> np.ndarray:
    """Sample indices of scope boundaries: rounded half to even (as
    ``round``) and clipped to ``[0, length - 1]``; order is kept."""
    return np.clip(np.rint(boundaries), 0, length - 1).astype(np.intp)


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


def locate_stacked(
    starts: np.ndarray, ends: np.ndarray, counts: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """:func:`_locate` of every row of *indices* in its own partition.

    Row ``w`` of the ``(W, q)`` array *indices* is looked up among the
    ``counts[w]`` consecutive intervals stored ``w``-th in *starts* and
    *ends*; the answers are interval indices within that partition.  One
    ``searchsorted`` serves all partitions, each lifted into its own key
    range.

    Intervals are consecutive and share their end points.  A sample
    strictly inside an interval lies in no other one, and the search over
    the interval starts finds it, as does :func:`_locate`.  On a point
    shared by two or more intervals (a boundary, possibly a run of empty
    intervals) :func:`_locate` answers whichever of them its binary search
    reaches first, which depends on the search path; those samples replay
    that search (:func:`_replay_search`).
    """
    counts = np.asarray(counts, dtype=np.intp)
    if not indices.size:
        return np.zeros(indices.shape, dtype=np.intp)
    heads = (np.cumsum(counts) - counts)[:, None]
    if counts.size == 1:
        keys, lifted_starts, lifted_ends = indices, starts, ends
    else:
        low = min(int(starts.min()), int(indices.min()))
        span = max(int(ends.max()), int(indices.max())) - low + 1
        lift = np.arange(counts.size) * span - low
        keys = indices + lift[:, None]
        lifted_starts = starts + np.repeat(lift, counts)
        lifted_ends = ends + np.repeat(lift, counts)
    # The last interval starting at or before each sample.
    found = np.maximum(lifted_starts.searchsorted(keys, side="right") - 1 - heads, 0)
    shared = (found > 0) & (starts[heads + found] == indices)
    if shared.any():
        which, _ = np.nonzero(shared)
        # The first interval ending at or after each shared sample.
        first = lifted_ends.searchsorted(keys[shared], side="left") - heads[which, 0]
        found[shared] = [
            _replay_search(count, head, tail)
            for count, head, tail in zip(
                counts[which].tolist(), first.tolist(), found[shared].tolist()
            )
        ]
    return found


@lru_cache(maxsize=1024)
def _replay_search(count: int, first: int, last: int) -> int:
    """:func:`_locate` over *count* intervals for a sample that intervals
    ``first .. last`` (and no other) contain.

    ``index <= end[0]`` is ``first == 0``, ``index >= start[-1]`` is
    ``last == count - 1``, ``index < start[mid]`` is ``mid > last`` and
    ``index > end[mid]`` is ``mid < first``: the same tests in the same
    order, so the same answer.  It depends on the three counts only, so
    answers are cached.
    """
    if first == 0:
        return 0
    if last == count - 1:
        return count - 1
    lo, hi = 0, count - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if mid > last:
            hi = mid - 1
        elif mid < first:
            lo = mid + 1
        else:
            return mid
    return max(0, min(count - 1, lo))


def _boundaries_to_intervals(
    boundaries: Sequence[float], length: int
) -> List[Interval]:
    """Convert boundary positions into consecutive covering intervals.

    Boundaries become sorted cuts (:func:`boundary_cuts`); each cut closes
    the current interval and opens the next one, so ``k`` boundaries
    produce ``k + 1`` intervals (possibly empty, i.e. single-sample, when
    boundaries coincide or sit at the series ends).
    """
    cuts = np.sort(boundary_cuts(np.asarray(boundaries, dtype=float), length)).tolist()
    return [
        Interval(start=start, end=end)
        for start, end in zip([0] + cuts, cuts + [length - 1])
    ]


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
