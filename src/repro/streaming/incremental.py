"""Incremental salient-feature extraction over a sliding stream window.

Section 3.4 of the paper argues that salient-feature extraction (task (a))
is a one-time, amortisable cost per stored series.  In the streaming
setting there is no "one time": the trailing window changes every tick.
:class:`IncrementalExtractor` restores the amortisation by maintaining the
window's Gaussian/DoG scale space (Section 3.1.2, Step 1) *incrementally*:

* **Interior reuse.**  A Gaussian convolution value depends only on the
  samples inside its kernel support; window-edge reflection padding dirties
  at most a ``kernel radius`` margin at each end.  When the window slides,
  every interior smoothed value is therefore reused verbatim and only the
  two edge margins plus the freshly appended tail are re-convolved.  The
  reuse bookkeeping tracks, per octave, how far the edge contamination
  propagates through the smoothing + downsampling chain, so the maintained
  pyramid is **bit-identical** to rebuilding it from scratch with
  :func:`repro.core.scale_space.build_scale_space`.
* **Hop-based refresh.**  Keypoint detection and descriptor creation
  (Steps 2–3) run once per ``hop`` ticks rather than per tick; between
  refreshes the feature snapshot (kept in absolute stream coordinates) is
  served unchanged.
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

The net effect is the paper's "extract once, reuse everywhere" economics
transplanted to unbounded streams: the per-tick cost of feature
maintenance is O(1) amortised in the window length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .._validation import check_int_at_least
from ..core.config import SDTWConfig
from ..core.descriptors import compute_descriptors, descriptor_window_radius
from ..core.features import FeatureSet, SalientFeature, keypoint_feature
from ..core.keypoints import Keypoint, detect_keypoints
from ..core.scale_space import ScaleLevel, ScaleSpace
from ..exceptions import ValidationError
from ..utils.preprocessing import downsample_by_two, gaussian_smooth
from .buffer import StreamBuffer


def _kernel_radius(sigma: float, truncate: float = 4.0) -> int:
    """Support radius of :func:`repro.utils.preprocessing.gaussian_kernel`."""
    return max(1, int(truncate * sigma + 0.5))


def _smooth_region(base: np.ndarray, sigma: float, lo: int, hi: int) -> np.ndarray:
    """``gaussian_smooth(base, sigma)[lo:hi]`` computed from a context chunk.

    The chunk extends ``kernel radius`` samples beyond the requested region
    on each side, so every requested output either sees exactly the real
    samples the full-window convolution sees, or — when the region touches
    a window edge — exactly the same reflection padding.  The result is
    bit-identical to slicing the full-window convolution.
    """
    n = base.size
    radius = _kernel_radius(sigma)
    chunk_lo = max(0, lo - radius)
    chunk_hi = min(n, hi + radius)
    if chunk_lo == 0 and chunk_hi == n:
        return gaussian_smooth(base, sigma)[lo:hi]
    smoothed = gaussian_smooth(base[chunk_lo:chunk_hi], sigma)
    return smoothed[lo - chunk_lo: hi - chunk_lo]


def _incremental_smooth(
    base: np.ndarray,
    sigma: float,
    prev: Optional[np.ndarray],
    shift: Optional[int],
    dirty_head: int = 0,
    dirty_tail: int = 0,
) -> Tuple[np.ndarray, int]:
    """``gaussian_smooth(base, sigma)``, reusing the interior of *prev*.

    Parameters
    ----------
    base:
        The new (exact) base series to smooth.
    sigma:
        Smoothing scale.
    prev:
        The smoothed array of the previous base, or ``None`` to force a
        full recomputation.
    shift:
        How many samples the base advanced since *prev* was computed
        (``new_base[j]`` covers the same absolute sample as
        ``prev_base[j + shift]``); ``None`` forces a full recomputation.
    dirty_head, dirty_tail:
        How many leading/trailing samples of the *base* series are
        window-dependent (contaminated by upstream edge padding).  Zero for
        raw windows; positive for downsampled octave bases.

    Returns
    -------
    (smoothed, reused):
        The full smoothed array (bit-identical to a from-scratch
        ``gaussian_smooth``) and how many output samples were reused.
    """
    n = base.size
    radius = _kernel_radius(sigma)
    if (
        prev is None
        or shift is None
        or shift < 0
        or prev.size != n
    ):
        return gaussian_smooth(base, sigma), 0
    # A value is reusable when its whole kernel support was clean
    # (window-independent) in the previous window *and* is clean in the
    # current one; outside that range the previous value reflects stale
    # edge padding.
    lo = dirty_head + radius
    hi = n - dirty_tail - radius - shift
    if hi - lo <= 0:
        return gaussian_smooth(base, sigma), 0
    out = np.empty(n)
    out[lo:hi] = prev[lo + shift: hi + shift]
    if lo > 0:
        out[:lo] = _smooth_region(base, sigma, 0, lo)
    if hi < n:
        out[hi:] = _smooth_region(base, sigma, hi, n)
    return out, hi - lo


@dataclass
class ExtractorStats:
    """Work accounting for one :class:`IncrementalExtractor`.

    ``samples_reused`` / ``samples_convolved`` count smoothed output
    samples served from the previous refresh versus re-convolved; their
    ratio is the incremental gain of the scale-space maintenance.
    ``descriptors_reused`` / ``descriptors_computed`` play the same role
    for Step 3.
    """

    refreshes: int = 0
    full_refreshes: int = 0
    samples_reused: int = 0
    samples_convolved: int = 0
    descriptors_reused: int = 0
    descriptors_computed: int = 0

    @property
    def reuse_fraction(self) -> float:
        """Fraction of smoothed samples served without re-convolving."""
        total = self.samples_reused + self.samples_convolved
        return self.samples_reused / total if total else 0.0


@dataclass
class _OctavePlan:
    """Static per-octave geometry of the window's scale space."""

    octave: int
    step: int
    length: int
    sigmas_local: List[float]
    sigmas_absolute: List[float]
    radii: List[int]
    dirty_head: int
    dirty_tail: int


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
        to a multiple of the coarsest octave stride, which keeps every
        octave's downsampling phase aligned between refreshes (maximum
        interior reuse); misaligned refreshes still work but fall back to
        full recomputation for the misaligned octaves.

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
        self._plans = self._build_plans()
        self._caching = self.reuse_descriptors and any(
            2 * self._support(sigma) <= self.window_length - 1
            for plan in self._plans for sigma in plan.sigmas_absolute
        )
        self.stride = self._plans[-1].step if self._plans else 1
        if hop is None:
            hop = max(self.stride, self.window_length // 8)
            hop -= hop % self.stride
            hop = max(self.stride, hop)
        self.hop = check_int_at_least(hop, 1, "hop")
        # Mutable refresh state.
        self._snapshot_start: Optional[int] = None
        self._smoothed: List[List[np.ndarray]] = []
        self._desc_smoothed: Dict[float, Tuple[np.ndarray, int]] = {}
        self._descriptor_cache: Dict[Tuple[float, float], np.ndarray] = {}
        self._features = FeatureSet(())
        self.stats = ExtractorStats()

    # ------------------------------------------------------------------ #
    # Static geometry
    # ------------------------------------------------------------------ #
    def _build_plans(self) -> List[_OctavePlan]:
        """Mirror the octave/level layout of ``build_scale_space`` exactly.

        The dirty-margin recursion tracks how far window-edge padding
        contaminates each octave base: smoothing widens the contaminated
        margin by its kernel radius, downsampling halves it (rounding up).
        """
        ss = self.config.scale_space
        n = self.window_length
        num_octaves = ss.octaves_for_length(n)
        s = ss.levels_per_octave
        kappa = ss.kappa
        plans: List[_OctavePlan] = []
        length = n
        dirty_head = 0
        dirty_tail = 0
        for octave in range(num_octaves):
            if length < 4:
                break
            step = 2 ** octave
            sigmas_local = [ss.base_sigma * (kappa ** lvl) for lvl in range(s + 1)]
            plans.append(
                _OctavePlan(
                    octave=octave,
                    step=step,
                    length=length,
                    sigmas_local=sigmas_local,
                    sigmas_absolute=[
                        ss.base_sigma * (kappa ** lvl) * step for lvl in range(s)
                    ],
                    radii=[_kernel_radius(sig) for sig in sigmas_local],
                    dirty_head=dirty_head,
                    dirty_tail=dirty_tail,
                )
            )
            # The next octave downsamples the most-smoothed version: its
            # contamination margin grows by that kernel radius, then halves.
            last_radius = _kernel_radius(sigmas_local[-1])
            dirty_head = -((dirty_head + last_radius) // -2)
            dirty_tail = -((dirty_tail + last_radius) // -2)
            length = -(length // -2)
        return plans

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

    def _due(self, window_start: int) -> bool:
        """True when the window starting at *window_start* must be refreshed.

        The refresh fires on the first full window and every ``hop`` ticks
        after.
        """
        return (
            self._snapshot_start is None
            or window_start - self._snapshot_start >= self.hop
        )

    def observe(self, buffer: StreamBuffer) -> bool:
        """Refresh from the buffer's trailing window if a refresh is due.

        Returns True when a refresh happened.  Call once per tick.
        """
        if buffer.total < self.window_length:
            return False
        start = buffer.total - self.window_length
        if not self._due(start):
            return False
        self.refresh(buffer.view(self.window_length), start)
        return True

    def observe_block(
        self, buffer: StreamBuffer, count: int
    ) -> List[Tuple[FeatureSet, int]]:
        """Walk the buffer's newest *count* ticks as :meth:`observe` would.

        Refreshes wherever a tick would have, and returns one
        ``(features, snapshot_start)`` pair per tick that ends a full
        window, oldest first: the snapshot each such tick saw.  The
        earliest of those windows must still be retained.
        """
        m = self.window_length
        first = max(buffer.total - count, m - 1)
        if first >= buffer.total:
            return []
        windows = sliding_window_view(buffer.view(buffer.total - first + m - 1), m)
        seen: List[Tuple[FeatureSet, int]] = []
        for start, window in enumerate(windows, first - m + 1):
            if self._due(start):
                self.refresh(window, start)
            seen.append((self._features, self._snapshot_start))
        return seen

    def refresh(self, window: np.ndarray, window_start: int) -> FeatureSet:
        """Force re-extraction on *window* (absolute start *window_start*)."""
        # Own copy: callers typically pass a live, zero-copy buffer view.
        window = np.array(window, dtype=float)
        if window.size != self.window_length:
            raise ValidationError(
                f"window has {window.size} samples, expected {self.window_length}"
            )
        shift = (
            window_start - self._snapshot_start
            if self._snapshot_start is not None
            else None
        )
        if shift is not None and shift <= 0:
            shift = None
        self.stats.refreshes += 1
        if shift is None:
            self.stats.full_refreshes += 1
        space = self._update_scale_space(window, shift)
        keypoints = detect_keypoints(space)
        self._snapshot_start = window_start
        self._features = self._build_features(window, window_start, keypoints, shift)
        return self._features

    # ------------------------------------------------------------------ #
    # Scale-space maintenance (Step 1)
    # ------------------------------------------------------------------ #
    def _update_scale_space(self, window: np.ndarray, shift: Optional[int]) -> ScaleSpace:
        levels: List[ScaleLevel] = []
        new_state: List[List[np.ndarray]] = []
        base = window.copy()
        for k, plan in enumerate(self._plans):
            # Octave k's base realigns between refreshes only when the
            # window moved by a multiple of its sampling step.
            shift_k = (
                shift // plan.step
                if shift is not None and shift % plan.step == 0
                else None
            )
            prev_versions = self._smoothed[k] if k < len(self._smoothed) else None
            versions: List[np.ndarray] = []
            for lvl, sigma_local in enumerate(plan.sigmas_local):
                prev = prev_versions[lvl] if prev_versions is not None else None
                smoothed, reused = _incremental_smooth(
                    base, sigma_local, prev, shift_k,
                    plan.dirty_head, plan.dirty_tail,
                )
                versions.append(smoothed)
                self.stats.samples_reused += reused
                self.stats.samples_convolved += base.size - reused
            for lvl in range(len(plan.sigmas_local) - 1):
                levels.append(
                    ScaleLevel(
                        octave=plan.octave,
                        level=lvl,
                        sigma=plan.sigmas_absolute[lvl],
                        sampling_step=plan.step,
                        smoothed=versions[lvl],
                        dog=versions[lvl + 1] - versions[lvl],
                    )
                )
            new_state.append(versions)
            base = downsample_by_two(versions[-1])
        self._smoothed = new_state
        return ScaleSpace(
            series=window, levels=tuple(levels), config=self.config.scale_space
        )

    # ------------------------------------------------------------------ #
    # Descriptors and feature assembly (Steps 2-3)
    # ------------------------------------------------------------------ #
    def _descriptor_gradient(
        self, window: np.ndarray, sigma: float, window_start: int
    ) -> np.ndarray:
        """Gradient of the window smoothed at a keypoint σ.

        The full-resolution smoothing is maintained incrementally across
        refreshes (:func:`_incremental_smooth` reuses the interior of the
        previous refresh's array), so its result is bit-identical to
        smoothing the window from scratch.  Called once per distinct σ per
        refresh.
        """
        sigma_key = round(sigma, 6)
        state = self._desc_smoothed.get(sigma_key)
        prev, shift = None, None
        if state is not None:
            prev, prev_start = state
            shift = window_start - prev_start
        smoothed, reused = _incremental_smooth(window, sigma, prev, shift)
        self.stats.samples_reused += reused
        self.stats.samples_convolved += window.size - reused
        self._desc_smoothed[sigma_key] = (smoothed, window_start)
        return np.gradient(smoothed)

    def _support(self, sigma: float) -> int:
        """Samples a descriptor at scale *sigma* reads on each side.

        The support spans the descriptor window plus one sample for the
        centred gradient plus the smoothing kernel radius.
        """
        return (
            descriptor_window_radius(sigma, self.config.descriptor)
            + 1 + _kernel_radius(sigma)
        )

    def _descriptor_cacheable(self, keypoint: Keypoint) -> bool:
        """True when the descriptor's whole support is window-independent.

        If any of the support touches a window edge the descriptor value
        depends on where the window currently starts and must not be
        shared across refreshes.
        """
        margin = self._support(keypoint.sigma)
        return (
            keypoint.position - margin >= 0
            and keypoint.position + margin <= self.window_length - 1
        )

    def _build_features(
        self,
        window: np.ndarray,
        window_start: int,
        keypoints: List[Keypoint],
        shift: Optional[int],
    ) -> FeatureSet:
        """Features of the refreshed window, stacked once for matching.

        Descriptors of interior keypoints come from the previous refresh's
        cache (when the window is long enough to have any); the rest are
        computed together in one :func:`compute_descriptors` pass, with
        the window smoothed and its gradient taken once per distinct σ.
        """
        sigma_keys = [round(kp.sigma, 6) for kp in keypoints]
        descriptors: List[Optional[np.ndarray]] = [None] * len(keypoints)
        if self._caching:
            keys = [
                (round(kp.position + window_start, 6), sigma_key)
                for kp, sigma_key in zip(keypoints, sigma_keys)
            ]
            cacheable = [self._descriptor_cacheable(kp) for kp in keypoints]
            if shift is not None:
                descriptors = [
                    self._descriptor_cache.get(key) if ok else None
                    for key, ok in zip(keys, cacheable)
                ]
        missing = [k for k, descriptor in enumerate(descriptors) if descriptor is None]
        self.stats.descriptors_reused += len(keypoints) - len(missing)
        self.stats.descriptors_computed += len(missing)
        if missing:
            gradients: Dict[float, np.ndarray] = {}
            for k in missing:
                if sigma_keys[k] not in gradients:
                    gradients[sigma_keys[k]] = self._descriptor_gradient(
                        window, keypoints[k].sigma, window_start
                    )
            computed = compute_descriptors(
                window.size,
                [keypoints[k].position for k in missing],
                [keypoints[k].sigma for k in missing],
                [gradients[sigma_keys[k]] for k in missing],
                self.config.descriptor,
            )
            for k, descriptor in zip(missing, computed):
                descriptors[k] = descriptor
        if self._caching:
            # Only descriptors re-validated this refresh survive: anything
            # older has expired out of the window or sits too close to an
            # edge.
            self._descriptor_cache = {
                key: descriptor
                for key, ok, descriptor in zip(keys, cacheable, descriptors)
                if ok
            }
        features = [
            keypoint_feature(kp, window, descriptor)
            for kp, descriptor in zip(keypoints, descriptors)
        ]
        features.sort(key=lambda f: (f.position, f.sigma))
        return FeatureSet(features)

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
