"""1-D Gaussian scale space and difference-of-Gaussian (DoG) series.

This implements Step 1 of the paper's salient-feature search
(Section 3.1.2): the series is repeatedly smoothed with Gaussians whose σ
grows by a factor κ (with κ^s = 2) inside each octave; adjacent smoothed
versions are subtracted to obtain DoG series; at the end of each octave the
series is downsampled by keeping every second sample, doubling the
effective smoothing rate for the next octave.  :func:`stack_scale_space`
builds the levels of a whole stack of equal-length series at once, one
convolution per σ per octave; :func:`build_scale_space` is that pass on a
stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple, Union

import numpy as np

from .._validation import as_series
from ..utils.preprocessing import downsample_by_two, gaussian_smooth_rows
from .config import ScaleSpaceConfig


@dataclass(frozen=True)
class ScaleLevel:
    """One difference-of-Gaussian level of the scale space.

    Attributes
    ----------
    octave:
        Octave index, 0-based.  Octave ``k`` works on the series
        downsampled ``k`` times (sampling step ``2**k``).
    level:
        Level index inside the octave, 0-based.
    sigma:
        The *absolute* smoothing scale of this level expressed in samples
        of the original series (i.e. already multiplied by the octave's
        sampling step).
    sampling_step:
        ``2**octave`` — the stride with which positions of this level map
        back to positions of the original series.
    smoothed:
        The series smoothed at this level's σ (in octave resolution).
    dog:
        Difference-of-Gaussian values ``L(·, κσ) − L(·, σ)`` (octave
        resolution).

    In the levels of :func:`stack_scale_space`, ``smoothed`` and ``dog``
    are ``(count, length)`` stacks with one row per series.
    """

    octave: int
    level: int
    sigma: float
    sampling_step: int
    smoothed: np.ndarray
    dog: np.ndarray

    def to_original_position(self, index: int) -> float:
        """Map an index of this level back to a position in the original series."""
        return float(index * self.sampling_step)

    @property
    def length(self) -> int:
        """Number of samples at this level's resolution."""
        return int(self.dog.size)


@dataclass(frozen=True)
class ScaleSpace:
    """The full scale-space decomposition of one time series.

    Attributes
    ----------
    series:
        The original series.
    levels:
        All DoG levels, ordered by (octave, level).
    config:
        The configuration used to build the space.
    """

    series: np.ndarray
    levels: Tuple[ScaleLevel, ...]
    config: ScaleSpaceConfig

    @property
    def num_octaves(self) -> int:
        """Number of octaves actually built."""
        if not self.levels:
            return 0
        return max(level.octave for level in self.levels) + 1

    def levels_of_octave(self, octave: int) -> List[ScaleLevel]:
        """All DoG levels belonging to one octave, in level order."""
        return [lvl for lvl in self.levels if lvl.octave == octave]

    def sigma_range(self) -> Tuple[float, float]:
        """Smallest and largest absolute σ present in the space."""
        sigmas = [lvl.sigma for lvl in self.levels]
        return (min(sigmas), max(sigmas)) if sigmas else (0.0, 0.0)


def octave_count(length: int, config: ScaleSpaceConfig) -> int:
    """Number of octaves built for a series of *length* samples.

    Octave ``k`` has sampling step ``2**k``; octaves are built while the
    configured octave count allows and the octave's base keeps at least
    4 samples.
    """
    count, size = 0, length
    while count < config.octaves_for_length(length) and size >= 4:
        count += 1
        size = -(size // -2)
    return count


def build_scale_space(
    series: Union[Sequence[float], np.ndarray],
    config: ScaleSpaceConfig = None,
) -> ScaleSpace:
    """Build the Gaussian scale space / DoG pyramid of a series.

    Parameters
    ----------
    series:
        The input time series (length N).
    config:
        Scale-space parameters; defaults to the paper's settings.

    Returns
    -------
    ScaleSpace

    Notes
    -----
    Within octave ``k`` we construct ``s + 1`` Gaussian-smoothed versions at
    σ, κσ, …, κ^s σ (in octave coordinates) and take the ``s`` successive
    differences; the absolute σ recorded for level ``l`` is
    ``base_sigma * κ^l * 2^k``.  The octave's base series is obtained by
    downsampling the previous octave's most-smoothed version by two, so the
    doubling of σ is realised partly by the downsampling itself, exactly as
    in SIFT.  This is :func:`stack_scale_space` on a stack of one.
    """
    if config is None:
        config = ScaleSpaceConfig()
    values = as_series(series, "series")
    levels = tuple(
        replace(level, smoothed=level.smoothed[0], dog=level.dog[0])
        for level in stack_scale_space(values[np.newaxis], config)
    )
    return ScaleSpace(series=values, levels=levels, config=config)


def stack_scale_space(rows: np.ndarray, config: ScaleSpaceConfig) -> Tuple[ScaleLevel, ...]:
    """The DoG levels of every series of a ``(count, n)`` stack at once.

    Each level holds ``(count, length)`` stacks; row ``r`` of every level
    is the level :func:`build_scale_space` builds for ``rows[r]``, bit for
    bit.  Each σ of an octave is one :func:`gaussian_smooth_rows` call
    over the whole stack.
    """
    kappa = config.kappa
    s = config.levels_per_octave
    levels: List[ScaleLevel] = []
    octave_base = rows
    for octave in range(octave_count(rows.shape[1], config)):
        step = 2 ** octave
        # Smoothed versions at sigma * kappa^l for l = 0..s (octave coordinates).
        smoothed_versions = [
            gaussian_smooth_rows(octave_base, config.base_sigma * (kappa ** lvl))
            for lvl in range(s + 1)
        ]
        for lvl in range(s):
            levels.append(
                ScaleLevel(
                    octave=octave,
                    level=lvl,
                    sigma=config.base_sigma * (kappa ** lvl) * step,
                    sampling_step=step,
                    smoothed=smoothed_versions[lvl],
                    dog=smoothed_versions[lvl + 1] - smoothed_versions[lvl],
                )
            )
        # Base of the next octave: the most-smoothed version, every 2nd sample.
        octave_base = downsample_by_two(smoothed_versions[-1])
    return tuple(levels)


def classify_scale(level: ScaleLevel, num_octaves: int) -> str:
    """Classify a level as ``"fine"``, ``"medium"`` or ``"rough"``.

    The paper's Table 2 reports salient-point counts at three scale
    granularities.  We map the first octave to "fine", the last octave to
    "rough", and everything in between to "medium"; with fewer than three
    octaves the coarsest available octave is "rough" and (when present) the
    middle one is "medium".
    """
    if num_octaves <= 1:
        return "fine"
    if level.octave == 0:
        return "fine"
    if level.octave == num_octaves - 1:
        return "rough"
    return "medium"
