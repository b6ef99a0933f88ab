"""Salient features: keypoints with descriptors, plus the extraction pipeline.

This module ties scale-space construction, keypoint detection, and
descriptor creation together into one pass over a stack of equal-length
series (:func:`extract_feature_sets`, driven step by step through
:class:`KeypointStack`).  Every step is an array operation over the
whole stack: one convolution per σ per octave, one extrema test per DoG
level, one descriptor pass, and one row reduction per distinct scope
length for the scope means.  :func:`extract_salient_features`, the
function the sDTW driver (and the Table 2 experiment) calls per series,
is the pass on a stack of one, and a stream extractor runs it over the
windows a block refreshes.  :class:`FeatureSet` holds a feature list
with the arrays matching and pair scoring read stacked once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_series
from ..utils.preprocessing import gaussian_smooth_rows
from .config import SDTWConfig
from .descriptors import stack_descriptors
from .keypoints import Keypoint, KeypointColumns, stack_keypoints
from .scale_space import stack_scale_space


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
        self._stack(
            items,
            np.stack([f.descriptor[:length] for f in items])
            if items else np.zeros((0, 0)),
            *(
                np.asarray([getattr(f, name) for f in items], dtype=float)
                for name in ("amplitude", "sigma", "position", "scope_start",
                             "scope_end", "mean_amplitude")
            ),
        )

    def _stack(self, items, descriptors, amplitudes, sigmas, positions,
               scope_starts, scope_ends, mean_amplitudes) -> None:
        self._items = items
        self.descriptors = descriptors
        # Row sums of squares, one reduction per row: a row's sum does not
        # depend on which other rows are stacked with it.
        self.squared_norms = np.add.reduce(descriptors * descriptors, axis=1)
        self.amplitudes = amplitudes
        self.sigmas = sigmas
        self.positions = positions
        self.scope_starts = scope_starts
        self.scope_ends = scope_ends
        self.mean_amplitudes = mean_amplitudes

    @classmethod
    def _from_columns(
        cls,
        keypoints: KeypointColumns,
        scope_starts: np.ndarray,
        scope_ends: np.ndarray,
        mean_amplitudes: np.ndarray,
        descriptors: np.ndarray,
    ) -> "FeatureSet":
        """The features of one series' keypoint columns (the extraction
        pass), stacked from the columns rather than from the features."""
        items = [
            SalientFeature(*fields)
            for fields in zip(
                keypoints.positions.tolist(), keypoints.sigmas.tolist(),
                scope_starts.tolist(), scope_ends.tolist(),
                keypoints.octaves.tolist(), keypoints.levels.tolist(),
                keypoints.amplitudes.tolist(), mean_amplitudes.tolist(),
                keypoints.dog_values.tolist(), keypoints.scale_classes.tolist(),
                descriptors,
            )
        ]
        self = cls.__new__(cls)
        self._stack(items, descriptors, keypoints.amplitudes, keypoints.sigmas,
                    keypoints.positions, scope_starts, scope_ends, mean_amplitudes)
        return self

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


def scope_means(
    rows: np.ndarray, series: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Mean amplitude over each scope of the series of a stack.

    Scope ``k`` covers the samples ``floor(starts[k])`` to
    ``ceil(ends[k])`` of ``rows[series[k]]``; a scope that covers no
    sample reads the sample at its start.  Each mean equals ``np.mean``
    of the scope's slice bit for bit: the scopes of one length are
    gathered into a matrix, and each of its rows is reduced along the
    contiguous axis, the same pairwise sum ``np.mean`` takes over a slice,
    then divided by the length.  (``np.add.reduceat`` sums sequentially
    and differs in the last bit.)
    """
    lo = np.floor(starts).astype(np.intp)
    sizes = np.ceil(ends).astype(np.intp) + 1 - lo
    flat = np.ascontiguousarray(rows).ravel()
    first = series * rows.shape[1] + lo
    means = flat[first]
    if not means.size:
        return means
    order = np.argsort(sizes, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        size = int(sizes[group[0]])
        if size > 0:
            samples = flat[first[group, np.newaxis] + np.arange(size)]
            means[group] = np.add.reduce(samples, axis=1) / size
    return means


def keypoint_feature(
    keypoint: Keypoint, series: np.ndarray, descriptor: np.ndarray
) -> SalientFeature:
    """Attach a descriptor and scope statistics to a detected keypoint."""
    scope_start = max(0.0, keypoint.scope_start)
    scope_end = min(float(series.size - 1), keypoint.scope_end)
    mean_amplitude = scope_means(
        series[np.newaxis], np.zeros(1, dtype=np.intp),
        np.array([scope_start]), np.array([scope_end]),
    )
    return SalientFeature(
        position=keypoint.position,
        sigma=keypoint.sigma,
        scope_start=scope_start,
        scope_end=scope_end,
        octave=keypoint.octave,
        level=keypoint.level,
        amplitude=keypoint.amplitude,
        mean_amplitude=float(mean_amplitude[0]),
        dog_value=keypoint.dog_value,
        scale_class=keypoint.scale_class,
        descriptor=descriptor,
    )


class KeypointStack:
    """The extraction pass over a ``(count, n)`` stack of series, step by step.

    Construction runs steps 1 and 2 of Section 3.1.2 for every series:
    the scale space (:func:`~repro.core.scale_space.stack_scale_space`)
    and the keypoints (:func:`~repro.core.keypoints.stack_keypoints`).
    :meth:`descriptors` runs step 3 for any subset of the keypoints, and
    :meth:`feature_sets` assembles each series' features.  A caller that
    already holds some descriptors (a stream extractor's cache) computes
    only the others.
    """

    def __init__(self, rows: np.ndarray, config: SDTWConfig) -> None:
        self.rows = rows
        self.config = config
        levels = stack_scale_space(rows, config.scale_space)
        self.keypoints = stack_keypoints(levels, config.scale_space, rows.shape[1])
        # The first octave smooths the series themselves, so descriptors at
        # one of its σ read that smoothing instead of repeating it.
        self._smoothed = {
            level.sigma: level.smoothed for level in levels if level.octave == 0
        }

    def descriptors(self, selected: Optional[np.ndarray] = None) -> np.ndarray:
        """Descriptors of the *selected* keypoints (all of them by default).

        Each series is smoothed, and its gradient taken, once per distinct
        σ of the selection, for the whole stack at once; the descriptors
        then come from one :func:`~repro.core.descriptors.stack_descriptors`
        pass.
        """
        keypoints = self.keypoints
        if selected is None:
            selected = np.arange(len(keypoints))
        sigmas = keypoints.sigmas[selected]
        distinct = np.sort(np.asarray(list(set(sigmas.tolist())), dtype=float))
        gradients = [
            np.gradient(
                self._smoothed[sigma] if sigma in self._smoothed
                else gaussian_smooth_rows(self.rows, sigma),
                axis=1,
            )
            for sigma in distinct.tolist()
        ]
        count, n = self.rows.shape
        return stack_descriptors(
            keypoints.positions[selected],
            sigmas,
            np.concatenate(gradients) if gradients else np.zeros((0, n)),
            np.searchsorted(distinct, sigmas) * count + keypoints.series[selected],
            self.config.descriptor,
        )

    def feature_sets(self, descriptors: np.ndarray) -> List[FeatureSet]:
        """Each series' features, ordered by position then σ.

        *descriptors* holds one row per keypoint, in keypoint order.
        Scopes are clipped to the series extent, and their mean amplitudes
        come from :func:`scope_means` over the whole stack.
        """
        keypoints = self.keypoints
        count, n = self.rows.shape
        starts = np.maximum(0.0, keypoints.positions - keypoints.scope_radii)
        ends = np.minimum(float(n - 1), keypoints.positions + keypoints.scope_radii)
        means = scope_means(self.rows, keypoints.series, starts, ends)
        bounds = np.searchsorted(keypoints.series, np.arange(count + 1)).tolist()
        return [
            FeatureSet._from_columns(
                keypoints.slice(lo, hi),
                starts[lo:hi], ends[lo:hi], means[lo:hi], descriptors[lo:hi],
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]


def extract_feature_sets(
    rows: np.ndarray, config: Optional[SDTWConfig] = None
) -> List[FeatureSet]:
    """The salient features of every series of a ``(count, n)`` stack.

    Row ``r``'s set equals ``extract_salient_features(rows[r], config)``
    field for field and bit for bit.
    """
    stack = KeypointStack(
        np.asarray(rows, dtype=float), config if config is not None else SDTWConfig()
    )
    return stack.feature_sets(stack.descriptors())


def extract_salient_features(
    series: Union[Sequence[float], np.ndarray],
    config: Optional[SDTWConfig] = None,
) -> List[SalientFeature]:
    """Extract the salient features of one time series.

    This runs the three extraction steps of Section 3.1.2 — scale-space
    construction, ε-relaxed extrema detection, and descriptor creation —
    and returns the features ordered by position (ties by σ).  It is
    :func:`extract_feature_sets` on a stack of one.

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
    values = as_series(series, "series")
    return list(extract_feature_sets(values[np.newaxis], config)[0])


def count_features_by_scale(
    features: Sequence[SalientFeature],
) -> Tuple[int, int, int]:
    """Return (fine, medium, rough) feature counts — the Table 2 quantities."""
    fine = sum(1 for f in features if f.scale_class == "fine")
    medium = sum(1 for f in features if f.scale_class == "medium")
    rough = sum(1 for f in features if f.scale_class == "rough")
    return fine, medium, rough
