"""Keypoint detection on the 1-D difference-of-Gaussian scale space.

Implements the ε-relaxed extrema search of Section 3.1.2: a point ``⟨x, σ⟩``
is accepted as a robust keypoint if its DoG magnitude is larger than
``(1 − ε)`` times that of each of its neighbours in time (left/right at the
same scale) and in scale (the same position one DoG level up and down
within the octave).  Unlike 2-D SIFT, nearby candidates are *not* forced to
prune each other, because over-pruning would starve the DTW band
construction of alignment evidence.

Low-contrast candidates (SIFT Step 2) are removed with a threshold on the
DoG magnitude relative to the level's value range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import ScaleSpaceConfig
from .scale_space import ScaleSpace, classify_scale


@dataclass(frozen=True)
class Keypoint:
    """A detected salient point before descriptor attachment.

    Attributes
    ----------
    position:
        Centre of the keypoint in original-series coordinates (float,
        because coarser octaves map back with a stride).
    sigma:
        Absolute temporal scale (σ) of the keypoint.
    scope_radius:
        Radius of the keypoint's scope (``scope_radius_sigmas * sigma``).
    octave, level:
        Scale-space coordinates where the keypoint was found.
    dog_value:
        The DoG response at the keypoint (signed; positive for peaks of the
        difference series, negative for dips).
    amplitude:
        Value of the smoothed series at the keypoint, used by the matching
        stage's amplitude gate (τ_a).
    scale_class:
        "fine", "medium" or "rough" — used by the Table 2 reproduction.
    """

    position: float
    sigma: float
    scope_radius: float
    octave: int
    level: int
    dog_value: float
    amplitude: float
    scale_class: str

    @property
    def scope_start(self) -> float:
        """Start (inclusive, in original coordinates) of the keypoint's scope."""
        return self.position - self.scope_radius

    @property
    def scope_end(self) -> float:
        """End (inclusive, in original coordinates) of the keypoint's scope."""
        return self.position + self.scope_radius

    @property
    def scope_length(self) -> float:
        """Temporal length of the scope (2 × scope_radius)."""
        return 2.0 * self.scope_radius


def _padded_magnitudes(values: np.ndarray, size: int) -> np.ndarray:
    """``|values|`` laid out for neighbour lookups around ``size`` samples.

    Entry ``j + 1`` holds ``|values[j]|`` for every ``j`` in ``[-1, size]``
    that indexes *values*; the rest stay zero.  A zero neighbour never
    rejects a candidate (``magnitude < threshold * 0`` is false), which is
    how an out-of-range or absent neighbour drops out of the test.
    """
    padded = np.zeros(size + 2)
    count = min(values.size, size + 1)
    padded[1: 1 + count] = np.abs(values[:count])
    return padded


def _dominates(magnitude, neighbour_magnitude, epsilon: float):
    """ε-relaxed dominance on |DoG| magnitudes (scalars or arrays).

    True where *magnitude* is at least ``(1 - ε)`` times the neighbour's
    magnitude, i.e. a candidate need not strictly dominate its
    neighbours: near-ties are kept rather than pruning each other.
    """
    return ~(magnitude < (1.0 - epsilon) * neighbour_magnitude)


def _is_relaxed_extremum(value: float, neighbours: Sequence[float], epsilon: float) -> bool:
    """ε-relaxed extremum test of one candidate against its neighbours."""
    magnitude = abs(value)
    if magnitude == 0.0:
        return False
    others = np.abs(np.asarray(neighbours, dtype=float))
    return bool(np.all(_dominates(magnitude, others, epsilon)))


def _relaxed_extrema(
    dog: np.ndarray,
    up: Optional[np.ndarray],
    down: Optional[np.ndarray],
    contrast_floor: float,
    epsilon: float,
) -> np.ndarray:
    """Indices of a level's samples that pass the contrast and extremum tests.

    A sample survives when its DoG magnitude is at least the contrast
    floor, is non-zero, and :func:`_dominates` every neighbour: left and
    right at the same level, and the three samples around the same index
    one level up and one level down.  The test runs over all samples at
    once; each comparison is the same float product and comparison the
    per-sample test makes, so the result is exact.
    """
    size = dog.size
    magnitude = np.abs(dog)
    keep = ~(magnitude < contrast_floor) & (dog != 0.0)
    own = _padded_magnitudes(dog, size)
    neighbours = [own[0:size], own[2:size + 2]]
    for other in (up, down):
        if other is not None:
            padded = _padded_magnitudes(other, size)
            neighbours.extend(padded[offset: offset + size] for offset in range(3))
    for other in neighbours:
        keep &= _dominates(magnitude, other, epsilon)
    return np.flatnonzero(keep)


def detect_keypoints(space: ScaleSpace) -> List[Keypoint]:
    """Detect robust keypoints on a scale space.

    Each level's candidates are found with one vectorised pass over its
    samples (:func:`_relaxed_extrema`); only the survivors become
    :class:`Keypoint` objects.

    Parameters
    ----------
    space:
        Scale space built by :func:`repro.core.scale_space.build_scale_space`.

    Returns
    -------
    list of Keypoint
        Keypoints ordered by original-series position (ties broken by σ).
    """
    config: ScaleSpaceConfig = space.config
    num_octaves = space.num_octaves
    keypoints: List[Keypoint] = []
    for octave in range(num_octaves):
        octave_levels = space.levels_of_octave(octave)
        for idx, level in enumerate(octave_levels):
            dog = level.dog
            if dog.size < 3:
                continue
            up = octave_levels[idx + 1].dog if idx + 1 < len(octave_levels) else None
            down = octave_levels[idx - 1].dog if idx - 1 >= 0 else None
            value_range = float(dog.max() - dog.min())
            # Absolute floor guards against float round-off on (near-)constant
            # series, where the DoG is numerically but not exactly zero.
            series_scale = float(np.max(np.abs(level.smoothed))) or 1.0
            contrast_floor = max(
                config.contrast_threshold * value_range, 1e-9 * series_scale
            )
            indices = _relaxed_extrema(dog, up, down, contrast_floor, config.epsilon)
            indices = indices[indices * level.sampling_step < space.series.size]
            if not indices.size:
                continue
            scope_radius = config.scope_radius_sigmas * level.sigma
            scale_class = classify_scale(level, num_octaves)
            for i, value, amplitude in zip(
                indices.tolist(),
                dog[indices].tolist(),
                level.smoothed[indices].tolist(),
            ):
                keypoints.append(
                    Keypoint(
                        position=level.to_original_position(i),
                        sigma=level.sigma,
                        scope_radius=scope_radius,
                        octave=level.octave,
                        level=level.level,
                        dog_value=value,
                        amplitude=amplitude,
                        scale_class=scale_class,
                    )
                )
    keypoints.sort(key=lambda kp: (kp.position, kp.sigma))
    return keypoints


def count_by_scale_class(keypoints: Sequence[Keypoint]) -> Tuple[int, int, int]:
    """Return (fine, medium, rough) keypoint counts — the Table 2 quantities."""
    fine = sum(1 for kp in keypoints if kp.scale_class == "fine")
    medium = sum(1 for kp in keypoints if kp.scale_class == "medium")
    rough = sum(1 for kp in keypoints if kp.scale_class == "rough")
    return fine, medium, rough
