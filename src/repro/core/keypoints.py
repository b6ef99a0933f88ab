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

:func:`stack_keypoints` runs the search over the levels of a whole stack
of series (:func:`repro.core.scale_space.stack_scale_space`), one test
per DoG level for every series, and returns the keypoints as columns;
:func:`detect_keypoints` is that search on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import ScaleSpaceConfig
from .scale_space import ScaleLevel, ScaleSpace, classify_scale


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


@dataclass(frozen=True)
class KeypointColumns:
    """The keypoints of a stack of series, one array per field.

    Entry ``k`` is a keypoint of series ``series[k]`` of the stack, with
    the fields of :class:`Keypoint`.  Entries are ordered by series, then
    by position, then by σ: each series' keypoints in the order
    :func:`detect_keypoints` returns them.
    """

    series: np.ndarray
    positions: np.ndarray
    sigmas: np.ndarray
    scope_radii: np.ndarray
    octaves: np.ndarray
    levels: np.ndarray
    dog_values: np.ndarray
    amplitudes: np.ndarray
    scale_classes: np.ndarray

    def __len__(self) -> int:
        return int(self.positions.size)

    def slice(self, start: int, stop: int) -> "KeypointColumns":
        """Entries ``start`` to ``stop - 1``, every column sliced alike."""
        return KeypointColumns(*(
            getattr(self, field.name)[start:stop] for field in fields(self)
        ))


def _padded_magnitudes(values: np.ndarray, size: int) -> np.ndarray:
    """``|values|`` laid out for neighbour lookups around ``size`` samples.

    Entry ``j + 1`` of each row holds ``|values[:, j]|`` for every ``j``
    in ``[-1, size]`` that indexes *values*; the rest stay zero.  A zero
    neighbour never rejects a candidate (``magnitude < threshold * 0`` is
    false), which is how an out-of-range or absent neighbour drops out of
    the test.
    """
    padded = np.zeros((values.shape[0], size + 2))
    count = min(values.shape[1], size + 1)
    padded[:, 1: 1 + count] = np.abs(values[:, :count])
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
    contrast_floor: np.ndarray,
    epsilon: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Series and sample indices of a level's samples that pass both tests.

    *dog*, *up* and *down* are ``(count, size)`` stacks, and
    *contrast_floor* holds one floor per series.  A sample survives when
    its DoG magnitude is at least its series' contrast floor, is
    non-zero, and :func:`_dominates` every neighbour: left and right at
    the same level, and the three samples around the same index one level
    up and one level down.  The test runs over all samples at once; each
    comparison is the same float product and comparison the per-sample
    test makes, so the result is exact.
    """
    size = dog.shape[1]
    magnitude = np.abs(dog)
    keep = ~(magnitude < contrast_floor[:, np.newaxis]) & (dog != 0.0)
    own = _padded_magnitudes(dog, size)
    neighbours = [own[:, 0:size], own[:, 2:size + 2]]
    for other in (up, down):
        if other is not None:
            padded = _padded_magnitudes(other, size)
            neighbours.extend(padded[:, offset: offset + size] for offset in range(3))
    for other in neighbours:
        keep &= _dominates(magnitude, other, epsilon)
    return np.nonzero(keep)


def stack_keypoints(
    levels: Sequence[ScaleLevel], config: ScaleSpaceConfig, length: int
) -> KeypointColumns:
    """Detect the robust keypoints of every series of a stack.

    *levels* come from :func:`repro.core.scale_space.stack_scale_space`
    over a stack of series of *length* samples.  Each level's candidates
    are found with one vectorised pass over all its samples
    (:func:`_relaxed_extrema`), under a contrast floor per series.
    """
    num_octaves = max((level.octave for level in levels), default=-1) + 1
    found = []
    for octave in range(num_octaves):
        octave_levels = [level for level in levels if level.octave == octave]
        for idx, level in enumerate(octave_levels):
            dog = level.dog
            if dog.shape[1] < 3:
                continue
            up = octave_levels[idx + 1].dog if idx + 1 < len(octave_levels) else None
            down = octave_levels[idx - 1].dog if idx - 1 >= 0 else None
            value_range = dog.max(axis=1) - dog.min(axis=1)
            # Absolute floor guards against float round-off on (near-)constant
            # series, where the DoG is numerically but not exactly zero.
            series_scale = np.abs(level.smoothed).max(axis=1)
            series_scale[series_scale == 0.0] = 1.0
            contrast_floor = np.maximum(
                config.contrast_threshold * value_range, 1e-9 * series_scale
            )
            series, indices = _relaxed_extrema(
                dog, up, down, contrast_floor, config.epsilon
            )
            inside = indices * level.sampling_step < length
            found.append((level, series[inside], indices[inside]))

    # Per keypoint: the index into *found* of its level.
    which = np.repeat(np.arange(len(found)), [series.size for _, series, _ in found])

    def per_level(field, dtype=float) -> np.ndarray:
        return np.asarray([field(level) for level, _, _ in found], dtype=dtype)[which]

    def per_sample(field, dtype=float) -> np.ndarray:
        if not found:
            return np.zeros(0, dtype=dtype)
        return np.concatenate([field(*entry) for entry in found]).astype(dtype, copy=False)

    series = per_sample(lambda level, series, indices: series, np.intp)
    positions = per_sample(lambda level, series, indices: indices * level.sampling_step)
    sigmas = per_level(lambda level: level.sigma)
    # Each series' keypoints by position, then σ; ties keep detection order,
    # as a stable sort of the detected list does.
    order = np.argsort(sigmas, kind="stable")
    order = order[np.argsort((series * length + positions)[order], kind="stable")]
    return KeypointColumns(
        series=series[order],
        positions=positions[order],
        sigmas=sigmas[order],
        scope_radii=per_level(lambda level: config.scope_radius_sigmas * level.sigma)[order],
        octaves=per_level(lambda level: level.octave, np.intp)[order],
        levels=per_level(lambda level: level.level, np.intp)[order],
        dog_values=per_sample(lambda level, series, indices: level.dog[series, indices])[order],
        amplitudes=per_sample(
            lambda level, series, indices: level.smoothed[series, indices]
        )[order],
        scale_classes=per_level(lambda level: classify_scale(level, num_octaves), object)[order],
    )


def detect_keypoints(space: ScaleSpace) -> List[Keypoint]:
    """Detect robust keypoints on a scale space.

    This is :func:`stack_keypoints` on a stack of one; only the survivors
    become :class:`Keypoint` objects.

    Parameters
    ----------
    space:
        Scale space built by :func:`repro.core.scale_space.build_scale_space`.

    Returns
    -------
    list of Keypoint
        Keypoints ordered by original-series position (ties broken by σ).
    """
    levels = [
        replace(level, smoothed=level.smoothed[np.newaxis], dog=level.dog[np.newaxis])
        for level in space.levels
    ]
    columns = stack_keypoints(levels, space.config, space.series.size)
    return [
        Keypoint(
            position=position,
            sigma=sigma,
            scope_radius=scope_radius,
            octave=octave,
            level=level,
            dog_value=dog_value,
            amplitude=amplitude,
            scale_class=scale_class,
        )
        for position, sigma, scope_radius, octave, level, dog_value, amplitude, scale_class
        in zip(
            columns.positions.tolist(), columns.sigmas.tolist(),
            columns.scope_radii.tolist(), columns.octaves.tolist(),
            columns.levels.tolist(), columns.dog_values.tolist(),
            columns.amplitudes.tolist(), columns.scale_classes.tolist(),
        )
    ]


def count_by_scale_class(keypoints: Sequence[Keypoint]) -> Tuple[int, int, int]:
    """Return (fine, medium, rough) keypoint counts — the Table 2 quantities."""
    fine = sum(1 for kp in keypoints if kp.scale_class == "fine")
    medium = sum(1 for kp in keypoints if kp.scale_class == "medium")
    rough = sum(1 for kp in keypoints if kp.scale_class == "rough")
    return fine, medium, rough
