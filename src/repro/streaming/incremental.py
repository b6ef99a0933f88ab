"""Incremental salient-feature extraction over a sliding stream window.

Section 3.4 of the paper argues that salient-feature extraction (task (a))
is a one-time, amortisable cost per stored series.  In the streaming
setting there is no "one time": the trailing window changes every tick.
:class:`IncrementalExtractor` bounds the cost three ways:

* **Hop-based refresh.**  Features are extracted once per ``hop`` ticks
  rather than per tick; between refreshes the feature snapshot (kept in
  absolute stream coordinates) is served unchanged.
* **Block refresh.**  A block of ticks
  (:meth:`IncrementalExtractor.observe_block`) extracts all its due
  windows in one pass over their stack
  (:class:`repro.core.features.KeypointStack`): one convolution per σ
  per octave, one extrema test per DoG level, one descriptor pass and one
  row reduction per distinct scope length, for all the windows at once.
* **Descriptor caching.**  A descriptor only depends on samples within a
  bounded support around its keypoint: the descriptor window radius, plus
  one sample for the centred gradient, plus the smoothing kernel radius
  on each side.  Keypoints whose support lies in the window interior keep
  their descriptor across refreshes (keyed by absolute position and
  scale), so the per-refresh descriptor cost is proportional to feature
  churn at the window edges, not to the feature count.  The support is
  smallest at the smallest keypoint σ, so a window shorter than twice
  that support plus one sample has no interior keypoint and can never
  reuse a descriptor (under the default descriptor configuration, σ = 1:
  37 samples a side, so windows under 75 samples); such an extractor
  decides this once and keeps no cache.

Every refresh builds its window's scale space from scratch.  Carrying the
interior of each smoothed array across refreshes and re-convolving only
the window edges gave the same arrays but cost more than the rebuild at
every window length measured (per refresh, on a 2-vCPU Intel Xeon: 67 vs
40 us at 64 samples, 78 vs 63 us at 128, 185 vs 107 us at 256, 422 vs
215 us at 1024), so it is gone.

Every snapshot equals ``extract_salient_features(window, config)`` for
its window, field for field and bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._validation import check_int_at_least
from ..core.config import SDTWConfig
from ..core.descriptors import descriptor_window_radius
from ..core.features import FeatureSet, KeypointStack, SalientFeature
from ..core.scale_space import octave_count
from ..exceptions import ValidationError
from ..utils.preprocessing import kernel_radius
from .buffer import StreamBuffer


@dataclass
class ExtractorStats:
    """Work accounting for one :class:`IncrementalExtractor`.

    ``refreshes`` counts extracted windows and ``full_refreshes`` those
    with no earlier snapshot to reuse descriptors from.
    ``descriptors_reused`` / ``descriptors_computed`` count descriptors
    served from the cache versus computed.
    """

    refreshes: int = 0
    full_refreshes: int = 0
    descriptors_reused: int = 0
    descriptors_computed: int = 0

    @property
    def reuse_fraction(self) -> float:
        """Fraction of smoothed samples served without re-convolving.

        Always 0.0: every refresh rebuilds its scale space.  The property
        stays while the repository benchmark reports it
        (``streaming.extractor_reuse_ratio``).
        """
        return 0.0


class IncrementalExtractor:
    """Maintain the salient features of a sliding window incrementally.

    Parameters
    ----------
    window_length:
        Length of the trailing window features are extracted from.
    config:
        Full sDTW configuration (scale-space + descriptor sections used).
    hop:
        Refresh cadence in ticks: features are re-extracted whenever the
        window start advanced by at least this many samples since the last
        refresh.  Defaults to ``max(stride, window_length // 8)`` rounded
        to a multiple of the coarsest octave stride, so every octave's
        keypoints fall on the same absolute sample grid from one refresh
        to the next and interior descriptors stay reusable; other hops
        work too, with fewer descriptor reuses.
    reuse_descriptors:
        Whether interior descriptors are carried across refreshes.

    Notes
    -----
    :meth:`features` is guaranteed to equal
    ``extract_salient_features(window, config)`` for the snapshot window —
    the test suite asserts exact equality — so downstream consumers
    (adaptive band construction, the Table 2 statistics) cannot tell the
    incremental and batch paths apart.
    """

    def __init__(
        self,
        window_length: int,
        config: Optional[SDTWConfig] = None,
        *,
        hop: Optional[int] = None,
        reuse_descriptors: bool = True,
    ) -> None:
        self.config = config if config is not None else SDTWConfig()
        self.window_length = check_int_at_least(window_length, 4, "window_length")
        self.reuse_descriptors = bool(reuse_descriptors)
        scale_space = self.config.scale_space
        # The support grows with σ, and the smallest keypoint σ is the base σ.
        self._caching = self.reuse_descriptors and (
            2 * self._support(scale_space.base_sigma) <= self.window_length - 1
        )
        self.stride = 2 ** (octave_count(self.window_length, scale_space) - 1)
        if hop is None:
            hop = max(self.stride, self.window_length // 8)
            hop -= hop % self.stride
            hop = max(self.stride, hop)
        self.hop = check_int_at_least(hop, 1, "hop")
        # Mutable refresh state.
        self._snapshot_start: Optional[int] = None
        self._descriptor_cache: Dict[Tuple[float, float], np.ndarray] = {}
        self._features = FeatureSet(())
        self.stats = ExtractorStats()

    # ------------------------------------------------------------------ #
    # Refresh driving
    # ------------------------------------------------------------------ #
    @property
    def ready(self) -> bool:
        """True once at least one window has been extracted."""
        return self._snapshot_start is not None

    @property
    def snapshot_start(self) -> Optional[int]:
        """Absolute index of the first sample of the snapshot window."""
        return self._snapshot_start

    @property
    def snapshot_end(self) -> Optional[int]:
        """Absolute index of the last sample of the snapshot window."""
        if self._snapshot_start is None:
            return None
        return self._snapshot_start + self.window_length - 1

    def _due(self, window_start: int, snapshot_start: Optional[int]) -> bool:
        """True when the window starting at *window_start* must be refreshed
        over a snapshot starting at *snapshot_start*.

        The refresh fires on the first full window and every ``hop`` ticks
        after.
        """
        return snapshot_start is None or window_start - snapshot_start >= self.hop

    def observe(self, buffer: StreamBuffer) -> bool:
        """Refresh from the buffer's trailing window if a refresh is due.

        Returns True when a refresh happened.  Call once per tick.
        """
        if buffer.total < self.window_length:
            return False
        start = buffer.total - self.window_length
        if not self._due(start, self._snapshot_start):
            return False
        self.refresh(buffer.view(self.window_length), start)
        return True

    def observe_block(
        self, buffer: StreamBuffer, count: int
    ) -> List[Tuple[FeatureSet, int]]:
        """Walk the buffer's newest *count* ticks as :meth:`observe` would.

        Refreshes wherever a tick would have, all the block's due windows
        in one extraction pass, and returns one ``(features,
        snapshot_start)`` pair per tick that ends a full window, oldest
        first: the snapshot each such tick saw.  The earliest of those
        windows must still be retained.
        """
        m = self.window_length
        first = max(buffer.total - count, m - 1)
        if first >= buffer.total:
            return []
        windows = sliding_window_view(buffer.view(buffer.total - first + m - 1), m)
        starts = range(first - m + 1, buffer.total - m + 1)
        due: List[int] = []
        snapshot_start = self._snapshot_start
        for index, start in enumerate(starts):
            if self._due(start, snapshot_start):
                due.append(index)
                snapshot_start = start
        seen: List[Tuple[FeatureSet, int]] = []
        current = (self._features, self._snapshot_start)
        refreshed = (
            dict(zip(due, self._refresh(windows[due], [starts[k] for k in due])))
            if due else {}
        )
        for index, start in enumerate(starts):
            if index in refreshed:
                current = (refreshed[index], start)
            seen.append(current)
        return seen

    def refresh(self, window: np.ndarray, window_start: int) -> FeatureSet:
        """Force re-extraction on *window* (absolute start *window_start*).

        A block of one window (:meth:`observe_block`).
        """
        window = np.asarray(window, dtype=float)
        if window.size != self.window_length:
            raise ValidationError(
                f"window has {window.size} samples, expected {self.window_length}"
            )
        return self._refresh(window.reshape(1, -1), [window_start])[0]

    def _refresh(self, windows: np.ndarray, starts: List[int]) -> List[FeatureSet]:
        """Extract the ``(count, m)`` *windows*, whose absolute starts
        *starts* ascend, in one pass; the last becomes the snapshot."""
        stack = KeypointStack(windows, self.config)
        self.stats.refreshes += len(starts)
        previous = self._snapshot_start
        if previous is None or starts[0] <= previous:
            self.stats.full_refreshes += 1
        if self._caching:
            descriptors = self._cached_descriptors(stack, starts, previous)
        else:
            descriptors = stack.descriptors()
            self.stats.descriptors_computed += len(stack.keypoints)
        sets = stack.feature_sets(descriptors)
        self._snapshot_start = starts[-1]
        self._features = sets[-1]
        return sets

    # ------------------------------------------------------------------ #
    # Descriptor cache (Step 3)
    # ------------------------------------------------------------------ #
    def _support(self, sigma: float) -> int:
        """Samples a descriptor at scale *sigma* reads on each side.

        The support spans the descriptor window plus one sample for the
        centred gradient plus the smoothing kernel radius.
        """
        return (
            descriptor_window_radius(sigma, self.config.descriptor)
            + 1 + kernel_radius(sigma)
        )

    def _cached_descriptors(
        self, stack: KeypointStack, starts: List[int], previous: Optional[int]
    ) -> np.ndarray:
        """The stack's descriptors, window after window through the cache.

        A window reuses the descriptors the refresh before it cached (the
        previous window of the block, or the last snapshot for the first
        one, when it precedes the window).  Only descriptors whose whole
        support lies inside their window are cached: anything else depends
        on where the window starts.  Which keypoints hit is known from the
        keys alone, so every miss of the block is computed in one pass
        before the hits are copied in.
        """
        keypoints = stack.keypoints
        positions = keypoints.positions.tolist()
        sigmas = keypoints.sigmas.tolist()
        margins = {sigma: self._support(sigma) for sigma in set(sigmas)}
        last = self.window_length - 1
        bounds = np.searchsorted(keypoints.series, np.arange(len(starts) + 1)).tolist()
        windows = []
        hits = np.zeros(len(keypoints), dtype=bool)
        cached = set(self._descriptor_cache)
        for window, start in enumerate(starts):
            rows = range(bounds[window], bounds[window + 1])
            keys = [(round(positions[k] + start, 6), round(sigmas[k], 6)) for k in rows]
            interior = [
                positions[k] - margins[sigmas[k]] >= 0
                and positions[k] + margins[sigmas[k]] <= last
                for k in rows
            ]
            if previous is not None and start > previous:
                hits[list(rows)] = [ok and key in cached for key, ok in zip(keys, interior)]
            cached = {key for key, ok in zip(keys, interior) if ok}
            windows.append((rows, keys, interior))
            previous = start
        missing = np.flatnonzero(~hits)
        descriptors = np.empty((len(keypoints), self.config.descriptor.num_cells * 2))
        descriptors[missing] = stack.descriptors(missing)
        cache = self._descriptor_cache
        for rows, keys, interior in windows:
            for k, key in zip(rows, keys):
                if hits[k]:
                    descriptors[k] = cache[key]
            cache = {
                key: descriptors[k] for k, key, ok in zip(rows, keys, interior) if ok
            }
        self._descriptor_cache = cache
        self.stats.descriptors_reused += int(hits.sum())
        self.stats.descriptors_computed += missing.size
        return descriptors

    # ------------------------------------------------------------------ #
    # Snapshot access
    # ------------------------------------------------------------------ #
    def features(self) -> FeatureSet:
        """The snapshot features, positions relative to the snapshot window."""
        return self._features

    def features_absolute(self) -> Tuple[SalientFeature, ...]:
        """The snapshot features with positions in absolute stream coordinates."""
        if self._snapshot_start is None:
            return ()
        offset = float(self._snapshot_start)
        return tuple(
            replace(
                f,
                position=f.position + offset,
                scope_start=f.scope_start + offset,
                scope_end=f.scope_end + offset,
            )
            for f in self._features
        )
