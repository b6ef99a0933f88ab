"""Bounded stream storage with O(1) append and zero-copy trailing windows.

The paper's salient-feature machinery assumes the whole series is in hand;
an online monitor only ever sees an unbounded stream one sample at a time.
:class:`StreamBuffer` is the storage substrate of the streaming subsystem
(the online counterpart of Section 3.4's "store the series once, reuse it
everywhere" amortisation argument): it retains the trailing ``capacity``
samples of a stream and serves *contiguous* windowed views of any trailing
length without copying.

The contiguity trick is the classic double-write ring: every sample is
written to two mirrored slots ``i % capacity`` and ``i % capacity +
capacity`` of a ``2 * capacity`` backing array, so every window of up to
``capacity`` trailing samples is a plain slice.  Appends stay O(1) (two
scalar writes) and windowed reads are zero-copy, which keeps the per-tick
cost of the matchers independent of stream length.

A block of ticks can be appended at once (:meth:`StreamBuffer.extend`)
and the block's length-``m`` windows read back as one ``(windows, m)``
strided view over :meth:`StreamBuffer.view`, as long as the block's
``count + m - 1`` samples are still retained.  The sliding matchers score
a whole block through that view.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .._validation import check_int_at_least
from ..exceptions import ValidationError


class StreamBuffer:
    """Ring buffer over the trailing ``capacity`` samples of a stream.

    Parameters
    ----------
    capacity:
        Maximum number of trailing samples retained.  Windowed views of up
        to this length are always contiguous.

    Notes
    -----
    Sample indices are *absolute* stream positions (the first sample ever
    appended has index 0); the buffer forgets samples older than
    ``total - capacity`` but the indexing stays absolute, so matchers can
    report match intervals in stream coordinates.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = check_int_at_least(capacity, 1, "capacity")
        self._data = np.zeros(2 * self._capacity)
        self._total = 0

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def append(self, value: float) -> int:
        """Append one sample; returns its absolute stream index.

        Non-finite samples are rejected: a single NaN would silently and
        permanently poison every carried DP column downstream.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"stream sample must be finite, got {value}")
        slot = self._total % self._capacity
        self._data[slot] = value
        self._data[slot + self._capacity] = value
        index = self._total
        self._total += 1
        return index

    def extend(self, values: Union[Sequence[float], np.ndarray]) -> int:
        """Append many samples at once; returns the last absolute index.

        Chunks larger than the capacity only write their trailing
        ``capacity`` samples (the rest would be immediately forgotten), so
        bulk replay of a long history stays O(capacity).
        """
        chunk = np.asarray(values, dtype=float)
        if chunk.ndim != 1:
            raise ValidationError(
                f"stream chunk must be one-dimensional, got shape {chunk.shape}"
            )
        if not np.all(np.isfinite(chunk)):
            raise ValidationError("stream chunk contains NaN or Inf values")
        if chunk.size == 0:
            return self._total - 1
        skipped = max(0, chunk.size - self._capacity)
        tail = chunk[skipped:]
        slots = (self._total + skipped + np.arange(tail.size)) % self._capacity
        self._data[slots] = tail
        self._data[slots + self._capacity] = tail
        self._total += chunk.size
        return self._total - 1

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Maximum number of retained samples."""
        return self._capacity

    @property
    def total(self) -> int:
        """Total number of samples ever appended."""
        return self._total

    @property
    def size(self) -> int:
        """Number of samples currently retained."""
        return min(self._total, self._capacity)

    @property
    def start_index(self) -> int:
        """Absolute index of the oldest retained sample."""
        return self._total - self.size

    def view(self, length: int = None) -> np.ndarray:
        """Zero-copy contiguous view of the trailing *length* samples.

        The returned array is a slice of the backing storage: it is only
        valid until the next append and must not be mutated.  With
        ``length=None`` the whole retained content is returned.
        """
        if length is None:
            length = self.size
        length = check_int_at_least(length, 1, "length")
        if length > self.size:
            raise ValidationError(
                f"requested window of {length} samples but only "
                f"{self.size} are retained"
            )
        end = (self._total - 1) % self._capacity + 1 + self._capacity
        return self._data[end - length: end]

    def window(self, length: int = None) -> np.ndarray:
        """Like :meth:`view` but returns an owned copy (safe to keep)."""
        return self.view(length).copy()

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> float:
        """Value at an *absolute* stream index (must still be retained)."""
        index = int(index)
        if not self.start_index <= index < self._total:
            raise ValidationError(
                f"absolute index {index} is outside the retained range "
                f"[{self.start_index}, {self._total})"
            )
        return float(self._data[index % self._capacity])
