"""Salient features: keypoints with descriptors, plus the extraction pipeline.

This module ties scale-space construction, keypoint detection, and
descriptor creation together into :func:`extract_salient_features`, the
function the sDTW driver (and the Table 2 experiment) calls per series.
:class:`FeatureSet` holds a feature list with the arrays matching and
pair scoring read stacked once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_series
from ..utils.preprocessing import gaussian_smooth
from .config import SDTWConfig
from .descriptors import compute_descriptors
from .keypoints import Keypoint, detect_keypoints
from .scale_space import build_scale_space


@dataclass(frozen=True)
class SalientFeature:
    """A salient feature: a keypoint plus its temporal descriptor.

    Attributes
    ----------
    position:
        Centre of the feature in original-series coordinates.
    sigma:
        Absolute temporal scale (σ).
    scope_start, scope_end:
        Scope boundaries (clipped to the series extent), i.e. the temporal
        region the feature describes (radius 3σ by default).
    octave, level:
        Scale-space coordinates of the underlying keypoint.
    amplitude:
        Value of the smoothed series at the feature centre.
    mean_amplitude:
        Mean of the original series within the feature's scope; used by the
        similarity score μ_sim (Section 3.2.2).
    dog_value:
        Signed DoG response of the keypoint.
    scale_class:
        "fine" / "medium" / "rough" (Table 2 granularity).
    descriptor:
        The 2a×2 gradient descriptor.
    """

    position: float
    sigma: float
    scope_start: float
    scope_end: float
    octave: int
    level: int
    amplitude: float
    mean_amplitude: float
    dog_value: float
    scale_class: str
    descriptor: np.ndarray

    @property
    def scope_length(self) -> float:
        """Temporal length of the feature's scope."""
        return self.scope_end - self.scope_start

    @property
    def center(self) -> float:
        """Alias for :attr:`position` matching the paper's center(f) notation."""
        return self.position

    def scope_as_indices(self, length: int) -> Tuple[int, int]:
        """Scope boundaries as integer indices clipped to ``[0, length - 1]``."""
        start = int(max(0, np.floor(self.scope_start)))
        end = int(min(length - 1, np.ceil(self.scope_end)))
        return start, max(start, end)


class FeatureSet(Sequence[SalientFeature]):
    """An immutable sequence of salient features with their arrays stacked.

    Matching compares every feature of one series with every feature of
    the other through a descriptor matrix, its row squared norms and the
    amplitude and σ arrays
    (:func:`repro.core.matching.match_salient_features`), and pair
    scoring reads the positions, scope bounds and mean amplitudes.  A
    FeatureSet stacks them all once, so a set that is matched many times
    (a stream pattern, an extractor snapshot) pays for the stacking once.
    Each descriptor row keeps the common length of the set's descriptors.

    The stream block band builder
    (:func:`repro.streaming.subsequence.build_stream_bands`) reads a
    snapshot's arrays, with each window's rows and shift applied, and
    builds no feature at all.  :meth:`shifted` builds the features of a
    later window, for the per-window reference scan.
    """

    __slots__ = (
        "descriptors", "squared_norms", "amplitudes", "sigmas", "positions",
        "scope_starts", "scope_ends", "mean_amplitudes", "_items",
    )

    def __init__(self, features: Sequence[SalientFeature]) -> None:
        items = list(features)
        length = min((f.descriptor.size for f in items), default=0)
        self.descriptors = (
            np.stack([f.descriptor[:length] for f in items])
            if items else np.zeros((0, 0))
        )
        # Row sums of squares, one reduction per row: a row's sum does not
        # depend on which other rows are stacked with it.
        self.squared_norms = np.add.reduce(self.descriptors * self.descriptors, axis=1)
        self.amplitudes = np.asarray([f.amplitude for f in items], dtype=float)
        self.sigmas = np.asarray([f.sigma for f in items], dtype=float)
        self.positions = np.asarray([f.position for f in items], dtype=float)
        self.scope_starts = np.asarray([f.scope_start for f in items], dtype=float)
        self.scope_ends = np.asarray([f.scope_end for f in items], dtype=float)
        self.mean_amplitudes = np.asarray([f.mean_amplitude for f in items], dtype=float)
        self._items = items

    @classmethod
    def of(cls, features: Sequence[SalientFeature]) -> "FeatureSet":
        """*features* itself when already a FeatureSet, else it stacked."""
        return features if isinstance(features, FeatureSet) else cls(features)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def shifted(self, shift: int, window_length: int) -> "FeatureSet":
        """The features in the coordinates of a window *shift* samples later.

        Features whose position leaves ``[0, window_length - 1]`` are
        dropped and scopes are clipped to that extent
        (:func:`shift_scopes`), mirroring what batch extraction clips at
        the series boundary.
        """
        if shift == 0:
            return self
        positions = self.positions - shift
        limit = float(window_length - 1)
        rows = np.flatnonzero((positions >= 0.0) & (positions <= limit))
        starts, ends = shift_scopes(
            self.scope_starts[rows], self.scope_ends[rows], shift, limit
        )
        return FeatureSet([
            replace(self._items[row], position=position, scope_start=start, scope_end=end)
            for row, position, start, end in zip(
                rows.tolist(), positions[rows].tolist(), starts.tolist(), ends.tolist()
            )
        ])


def shift_scopes(
    starts: np.ndarray, ends: np.ndarray, shift, limit: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Scope bounds in the coordinates of a window *shift* samples later.

    Bounds are clipped to the new window extent ``[0, limit]``, as batch
    extraction clips them at the series boundary.  *shift* may be one
    shift or one per bound.
    """
    return np.maximum(0.0, starts - shift), np.minimum(limit, ends - shift)


def keypoint_feature(
    keypoint: Keypoint, series: np.ndarray, descriptor: np.ndarray
) -> SalientFeature:
    """Attach a descriptor and scope statistics to a detected keypoint."""
    scope_start = max(0.0, keypoint.scope_start)
    scope_end = min(float(series.size - 1), keypoint.scope_end)
    lo = int(np.floor(scope_start))
    hi = int(np.ceil(scope_end)) + 1
    mean_amplitude = float(series[lo:hi].mean()) if hi > lo else float(series[lo])
    return SalientFeature(
        position=keypoint.position,
        sigma=keypoint.sigma,
        scope_start=scope_start,
        scope_end=scope_end,
        octave=keypoint.octave,
        level=keypoint.level,
        amplitude=keypoint.amplitude,
        mean_amplitude=mean_amplitude,
        dog_value=keypoint.dog_value,
        scale_class=keypoint.scale_class,
        descriptor=descriptor,
    )


def extract_salient_features(
    series: Union[Sequence[float], np.ndarray],
    config: Optional[SDTWConfig] = None,
) -> List[SalientFeature]:
    """Extract the salient features of one time series.

    This runs the three extraction steps of Section 3.1.2 — scale-space
    construction, ε-relaxed extrema detection, and descriptor creation —
    and returns the features ordered by position.  The series is smoothed,
    and its gradient taken, once per distinct keypoint σ; all descriptors
    are then computed in one :func:`compute_descriptors` pass.

    Parameters
    ----------
    series:
        The input time series.
    config:
        Full sDTW configuration; only its ``scale_space`` and ``descriptor``
        sections are used here.

    Returns
    -------
    list of SalientFeature
    """
    if config is None:
        config = SDTWConfig()
    values = as_series(series, "series")
    space = build_scale_space(values, config.scale_space)
    keypoints = detect_keypoints(space)
    gradients: dict = {}
    for kp in keypoints:
        sigma_key = round(kp.sigma, 6)
        if sigma_key not in gradients:
            gradients[sigma_key] = np.gradient(gaussian_smooth(values, kp.sigma))
    descriptors = compute_descriptors(
        values.size,
        [kp.position for kp in keypoints],
        [kp.sigma for kp in keypoints],
        [gradients[round(kp.sigma, 6)] for kp in keypoints],
        config.descriptor,
    )
    features = [
        keypoint_feature(kp, values, descriptor)
        for kp, descriptor in zip(keypoints, descriptors)
    ]
    features.sort(key=lambda f: (f.position, f.sigma))
    return features


def count_features_by_scale(
    features: Sequence[SalientFeature],
) -> Tuple[int, int, int]:
    """Return (fine, medium, rough) feature counts — the Table 2 quantities."""
    fine = sum(1 for f in features if f.scale_class == "fine")
    medium = sum(1 for f in features if f.scale_class == "medium")
    rough = sum(1 for f in features if f.scale_class == "rough")
    return fine, medium, rough
