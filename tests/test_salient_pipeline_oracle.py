"""The salient-feature pipeline against its per-element reference loops.

The reference functions below are the loop versions the array code
replaced, kept as written: keypoint detection, descriptors (with the
feature assembly of batch extraction), dominant-pair matching, pair
scoring with the consistency greedy over boundary-order objects, the
interval partition, the adaptive core with the adaptive-width loop,
per-tick feature shifting and the per-tick stream band built from them.
The array versions compute every value with the same float operations in
the same order, so each property asserts exact equality, never
closeness.
"""

from __future__ import annotations

import bisect
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro._validation import as_series, check_positive
from repro.core import bands, keypoints as keypoint_module
from repro.core.bands import (
    ConstraintSpec,
    _candidate_points_fixed_core,
    build_constraint_band,
    build_symmetric_band,
    parse_constraint_spec,
)
from repro.core.config import (
    DescriptorConfig,
    MatchingConfig,
    ScaleSpaceConfig,
    SDTWConfig,
)
from repro.core.consistency import (
    ConsistentAlignment,
    ScoredPair,
    prune_inconsistent_pairs,
)
from repro.core.descriptors import (
    compute_descriptor,
    compute_descriptors,
    descriptor_window_radius,
)
from repro.core.features import (
    FeatureSet,
    SalientFeature,
    extract_salient_features,
)
from repro.core.intervals import (
    Interval,
    IntervalPartition,
    build_interval_partition,
    locate_stacked,
    partition_from_boundaries,
)
from repro.core.keypoints import Keypoint
from repro.core.matching import MatchedPair, match_salient_features
from repro.core.scale_space import ScaleSpace, build_scale_space, classify_scale
from repro.dtw.banded import validate_band
from repro.dtw.constraints import sakoe_chiba_band_fraction
from repro.exceptions import ValidationError
from repro.streaming.buffer import StreamBuffer
from repro.streaming.incremental import IncrementalExtractor
from repro.streaming.subsequence import (
    build_stream_band,
    build_stream_bands,
    shift_snapshot_features,
)
from repro.utils.preprocessing import gaussian_smooth
from repro.utils.stats import safe_divide


# ---------------------------------------------------------------------- #
# Reference loop versions
# ---------------------------------------------------------------------- #
def _neighbours(
    level_values: np.ndarray,
    up_values: np.ndarray,
    down_values: np.ndarray,
    index: int,
) -> List[float]:
    """Collect the DoG values of the time and scale neighbours of a point."""
    neighbours: List[float] = []
    if index > 0:
        neighbours.append(float(level_values[index - 1]))
    if index + 1 < level_values.size:
        neighbours.append(float(level_values[index + 1]))
    for other in (up_values, down_values):
        if other is None:
            continue
        for offset in (-1, 0, 1):
            j = index + offset
            if 0 <= j < other.size:
                neighbours.append(float(other[j]))
    return neighbours


def _is_relaxed_extremum(value: float, neighbours: Sequence[float], epsilon: float) -> bool:
    """ε-relaxed extremum test on |DoG| magnitudes.

    The candidate survives if its magnitude is at least ``(1 - ε)`` times
    the magnitude of every neighbour, i.e. it does not need to strictly
    dominate them — near-ties are kept rather than pruning each other.
    """
    magnitude = abs(value)
    if magnitude == 0.0:
        return False
    threshold = 1.0 - epsilon
    for other in neighbours:
        if magnitude < threshold * abs(other):
            return False
    return True


def reference_detect_keypoints(space: ScaleSpace) -> List[Keypoint]:
    """Detect robust keypoints on a scale space.

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
            for i in range(dog.size):
                value = float(dog[i])
                if abs(value) < contrast_floor or value == 0.0:
                    continue
                neighbours = _neighbours(dog, up, down, i)
                if not neighbours:
                    continue
                if not _is_relaxed_extremum(value, neighbours, config.epsilon):
                    continue
                position = level.to_original_position(i)
                if position >= space.series.size:
                    continue
                keypoints.append(
                    Keypoint(
                        position=position,
                        sigma=level.sigma,
                        scope_radius=config.scope_radius_sigmas * level.sigma,
                        octave=level.octave,
                        level=level.level,
                        dog_value=value,
                        amplitude=float(level.smoothed[i]),
                        scale_class=classify_scale(level, num_octaves),
                    )
                )
    keypoints.sort(key=lambda kp: (kp.position, kp.sigma))
    return keypoints


def _gradient(series: np.ndarray) -> np.ndarray:
    """Centred first difference of a series (same length as the input)."""
    return np.gradient(series)


def reference_compute_descriptor(
    series: Union[Sequence[float], np.ndarray],
    position: float,
    sigma: float,
    config: DescriptorConfig = None,
    *,
    smoothed: np.ndarray = None,
) -> np.ndarray:
    """Compute the 2a×2 gradient descriptor of a keypoint.

    Parameters
    ----------
    series:
        The original time series the keypoint was detected on.
    position:
        Keypoint centre in original-series coordinates.
    sigma:
        Absolute temporal scale of the keypoint.
    config:
        Descriptor parameters (length, weighting); defaults to 64 bins.
    smoothed:
        Optional pre-smoothed version of the series at the keypoint's σ; if
        omitted the series is smoothed here.

    Returns
    -------
    numpy.ndarray
        Descriptor vector of length ``config.num_bins``.
    """
    if config is None:
        config = DescriptorConfig()
    values = as_series(series, "series")
    sigma = check_positive(sigma, "sigma")
    if smoothed is None:
        smoothed = gaussian_smooth(values, sigma)
    else:
        smoothed = np.asarray(smoothed, dtype=float)
    gradients = _gradient(smoothed)

    num_cells = config.num_cells
    radius = descriptor_window_radius(sigma, config)
    window_start = position - radius
    window_length = 2.0 * radius
    cell_width = window_length / num_cells

    # Gaussian weighting centred on the keypoint.
    weight_sigma = config.gaussian_weight_factor * radius
    descriptor = np.zeros(num_cells * 2)

    center_index = int(round(position))
    lo = max(0, center_index - radius)
    hi = min(values.size - 1, center_index + radius)
    for sample in range(lo, hi + 1):
        offset = sample - position
        weight = np.exp(-(offset ** 2) / (2.0 * weight_sigma ** 2))
        cell = int((sample - window_start) / cell_width)
        cell = min(max(cell, 0), num_cells - 1)
        grad = gradients[sample]
        if grad >= 0:
            descriptor[cell * 2] += weight * grad
        else:
            descriptor[cell * 2 + 1] += weight * (-grad)

    if config.normalize:
        descriptor = _normalize_descriptor(descriptor, config.clip_value)
    return descriptor


def _normalize_descriptor(descriptor: np.ndarray, clip_value: float) -> np.ndarray:
    """L2-normalise, clip, and renormalise (the SIFT illumination rule)."""
    norm = np.linalg.norm(descriptor)
    if norm == 0:
        return descriptor
    descriptor = descriptor / norm
    descriptor = np.minimum(descriptor, clip_value)
    norm = np.linalg.norm(descriptor)
    if norm == 0:
        return descriptor
    return descriptor / norm


def _keypoint_to_feature(
    keypoint: Keypoint,
    series: np.ndarray,
    config: SDTWConfig,
    smoothed_cache: dict,
) -> SalientFeature:
    """Attach a descriptor and scope statistics to a detected keypoint."""
    sigma_key = round(keypoint.sigma, 6)
    if sigma_key not in smoothed_cache:
        smoothed_cache[sigma_key] = gaussian_smooth(series, keypoint.sigma)
    smoothed = smoothed_cache[sigma_key]
    descriptor = reference_compute_descriptor(
        series,
        keypoint.position,
        keypoint.sigma,
        config.descriptor,
        smoothed=smoothed,
    )
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


def reference_extract_salient_features(
    series: Union[Sequence[float], np.ndarray],
    config: Optional[SDTWConfig] = None,
) -> List[SalientFeature]:
    """Extract the salient features of one time series.

    This runs the three extraction steps of Section 3.1.2 — scale-space
    construction, ε-relaxed extrema detection, and descriptor creation —
    and returns the features ordered by position.

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
    keypoints = reference_detect_keypoints(space)
    smoothed_cache: dict = {}
    features = [
        _keypoint_to_feature(kp, values, config, smoothed_cache) for kp in keypoints
    ]
    features.sort(key=lambda f: (f.position, f.sigma))
    return features


def reference_match_salient_features(
    features_x: Sequence[SalientFeature],
    features_y: Sequence[SalientFeature],
    config: Optional[MatchingConfig] = None,
) -> List[MatchedPair]:
    """Identify the dominant matching pairs between two feature sets.

    For every feature of the first series the admissible candidates in the
    second series (those passing the amplitude and scale gates) are ranked
    by descriptor distance; the closest candidate is returned as a match if
    it is distinctive — no other admissible candidate may be within a
    factor ``distinctiveness_ratio`` (τ_d) of its distance.

    The whole computation is vectorised over the |S_X| × |S_Y| candidate
    grid, keeping the matching step a small fraction of the per-comparison
    cost (the property Figure 17 of the paper reports).

    Parameters
    ----------
    features_x, features_y:
        Salient features of the two series being compared.
    config:
        Matching thresholds; defaults to :class:`MatchingConfig`'s defaults.

    Returns
    -------
    list of MatchedPair
        Matches ordered by the position of the first series' feature.
    """
    if config is None:
        config = MatchingConfig()
    matches: List[MatchedPair] = []
    if not features_x or not features_y:
        return matches

    # Descriptors may have different lengths if callers mix configurations;
    # compare over the common prefix (normal use keeps lengths equal).
    min_len = min(
        min(f.descriptor.size for f in features_x),
        min(f.descriptor.size for f in features_y),
    )
    desc_x = np.stack([f.descriptor[:min_len] for f in features_x])
    desc_y = np.stack([f.descriptor[:min_len] for f in features_y])
    # Pairwise Euclidean distances between descriptors.
    sq = (
        np.sum(desc_x * desc_x, axis=1)[:, None]
        + np.sum(desc_y * desc_y, axis=1)[None, :]
        - 2.0 * desc_x @ desc_y.T
    )
    distances = np.sqrt(np.maximum(sq, 0.0))

    amp_x = np.asarray([f.amplitude for f in features_x])
    amp_y = np.asarray([f.amplitude for f in features_y])
    sigma_x = np.asarray([f.sigma for f in features_x])
    sigma_y = np.asarray([f.sigma for f in features_y])
    amplitude_ok = (
        np.abs(amp_x[:, None] - amp_y[None, :]) <= config.max_amplitude_difference
    )
    ratio = np.maximum(sigma_x[:, None], sigma_y[None, :]) / np.maximum(
        np.minimum(sigma_x[:, None], sigma_y[None, :]), 1e-12
    )
    scale_ok = ratio <= config.max_scale_ratio
    admissible = amplitude_ok & scale_ok

    gated = np.where(admissible, distances, np.inf)
    for i, feature in enumerate(features_x):
        row = gated[i]
        best_j = int(np.argmin(row))
        best_distance = float(row[best_j])
        if not np.isfinite(best_distance):
            continue
        if config.require_distinctive and row.size > 1:
            second_distance = float(np.partition(row, 1)[1])
            # Accept only if the best match is clearly better than the
            # runner-up: best * tau_d <= second.
            if (
                np.isfinite(second_distance)
                and best_distance * config.distinctiveness_ratio > second_distance
            ):
                continue
        matches.append(
            MatchedPair(
                feature_x=feature,
                feature_y=features_y[best_j],
                descriptor_distance=best_distance,
            )
        )
    matches.sort(key=lambda pair: pair.feature_x.position)
    return matches


def reference_amplitude_percentage_difference(pair: MatchedPair) -> float:
    """Δ_amp: relative difference between the mean scope amplitudes of a pair.

    Expressed as a fraction of the larger magnitude, clipped to [0, 1], so
    ``1 − Δ_amp`` stays a usable multiplicative factor.
    """
    a = pair.feature_x.mean_amplitude
    b = pair.feature_y.mean_amplitude
    denom = max(abs(a), abs(b))
    if denom == 0:
        return 0.0
    return float(min(1.0, abs(a - b) / denom))


def reference_score_pairs(pairs: Sequence[MatchedPair]) -> List[ScoredPair]:
    """Compute μ_align, μ_sim and the combined F-measure score for all pairs."""
    if not pairs:
        return []
    similarities = [pair.descriptor_similarity for pair in pairs]
    min_similarity = min(similarities)
    raw_align: List[float] = []
    raw_sim: List[float] = []
    for pair in pairs:
        scope_avg = (pair.feature_x.scope_length + pair.feature_y.scope_length) / 2.0
        align = scope_avg / (1.0 + pair.center_offset)
        sim = safe_divide(pair.descriptor_similarity, min_similarity, default=1.0)
        sim *= 1.0 - reference_amplitude_percentage_difference(pair)
        raw_align.append(align)
        raw_sim.append(sim)
    max_align = max(raw_align) if max(raw_align) > 0 else 1.0
    max_sim = max(raw_sim) if max(raw_sim) > 0 else 1.0
    scored: List[ScoredPair] = []
    for pair, align, sim in zip(pairs, raw_align, raw_sim):
        ns_align = align / max_align
        ns_sim = sim / max_sim
        if ns_align + ns_sim == 0:
            combined = 0.0
        else:
            combined = 2.0 * ns_align * ns_sim / (ns_align + ns_sim)
        scored.append(
            ScoredPair(
                pair=pair,
                alignment_score=align,
                similarity_score=sim,
                combined_score=combined,
            )
        )
    return scored


class _BoundaryOrder:
    """Sorted list of committed scope boundaries for one series."""

    def __init__(self) -> None:
        self._values: List[float] = []

    def rank_of(self, value: float) -> int:
        """Rank (insertion index) the value would take in the current order."""
        return bisect.bisect_left(self._values, value)

    def has_value(self, value: float) -> bool:
        """True if an identical boundary value is already committed."""
        idx = bisect.bisect_left(self._values, value)
        return idx < len(self._values) and self._values[idx] == value

    def insert(self, value: float) -> None:
        bisect.insort(self._values, value)

    def values(self) -> Tuple[float, ...]:
        return tuple(self._values)


def _ranks_compatible(
    order_x: _BoundaryOrder,
    order_y: _BoundaryOrder,
    value_x: float,
    value_y: float,
) -> bool:
    """Check that inserting (value_x, value_y) keeps the two orders aligned.

    The ranks must be equal; as the paper notes, exact ties on existing
    boundary values are also accepted (the "special cases" exception),
    because an identical time value cannot introduce a crossing.
    """
    if order_x.rank_of(value_x) == order_y.rank_of(value_y):
        return True
    return order_x.has_value(value_x) and order_y.has_value(value_y)


def reference_prune_inconsistent_pairs(
    pairs: Sequence[MatchedPair],
    config: Optional[MatchingConfig] = None,
) -> ConsistentAlignment:
    """Remove temporally inconsistent matched pairs.

    Pairs are committed greedily in descending order of their combined
    score; a pair is kept only if both its start boundaries and both its
    end boundaries can be inserted at matching ranks of the two per-series
    boundary orderings (no crossings), treating each pair's insertion
    atomically.

    Parameters
    ----------
    pairs:
        Candidate matched pairs from :func:`match_salient_features`.
    config:
        Matching configuration.  If ``prune_inconsistencies`` is False the
        pairs are only scored and returned unchanged (useful for the
        ablation study).

    Returns
    -------
    ConsistentAlignment
    """
    if config is None:
        config = MatchingConfig()
    scored = reference_score_pairs(pairs)
    scored.sort(key=lambda sp: sp.combined_score, reverse=True)

    if not config.prune_inconsistencies:
        kept_all = tuple(sorted((sp.pair for sp in scored),
                                key=lambda p: p.feature_x.position))
        bx = tuple(sorted(
            b for p in kept_all
            for b in (p.feature_x.scope_start, p.feature_x.scope_end)
        ))
        by = tuple(sorted(
            b for p in kept_all
            for b in (p.feature_y.scope_start, p.feature_y.scope_end)
        ))
        return ConsistentAlignment(
            pairs=kept_all,
            scored_pairs=tuple(scored),
            boundaries_x=bx,
            boundaries_y=by,
        )

    order_x = _BoundaryOrder()
    order_y = _BoundaryOrder()
    kept: List[MatchedPair] = []
    for sp in scored:
        pair = sp.pair
        st_x, end_x = pair.feature_x.scope_start, pair.feature_x.scope_end
        st_y, end_y = pair.feature_y.scope_start, pair.feature_y.scope_end
        # Tentatively check the start boundary, then the end boundary given
        # the start has (virtually) been inserted.  Because both starts are
        # inserted before both ends and st <= end, checking the two
        # boundaries independently against the committed orders is
        # equivalent to the paper's sequential insertion attempt.
        if not _ranks_compatible(order_x, order_y, st_x, st_y):
            continue
        if not _ranks_compatible(order_x, order_y, end_x, end_y):
            continue
        # Additionally require that the start/end of this pair do not
        # straddle an existing committed boundary asymmetrically: the rank
        # of the end (after inserting the start) must also match.
        rank_end_x = order_x.rank_of(end_x) + (1 if st_x <= end_x else 0)
        rank_end_y = order_y.rank_of(end_y) + (1 if st_y <= end_y else 0)
        if rank_end_x != rank_end_y and not (
            order_x.has_value(end_x) and order_y.has_value(end_y)
        ):
            continue
        order_x.insert(st_x)
        order_x.insert(end_x)
        order_y.insert(st_y)
        order_y.insert(end_y)
        kept.append(pair)

    kept.sort(key=lambda p: p.feature_x.position)
    return ConsistentAlignment(
        pairs=tuple(kept),
        scored_pairs=tuple(scored),
        boundaries_x=order_x.values(),
        boundaries_y=order_y.values(),
    )


def _reference_boundaries_to_intervals(
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


def reference_build_interval_partition(
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
    intervals_x = _reference_boundaries_to_intervals(bx, n)
    intervals_y = _reference_boundaries_to_intervals(by, m)
    return IntervalPartition(
        intervals_x=tuple(intervals_x),
        intervals_y=tuple(intervals_y),
        n=n,
        m=m,
    )


def _candidate_points_adaptive_core(
    n: int, m: int, partition: IntervalPartition
) -> np.ndarray:
    """Candidate points from corresponding intervals (Section 3.3.2).

    For x_i in interval E, the candidate j satisfies

        (j - st(Y,E)) / (end(Y,E) - st(Y,E)) = (i - st(X,E)) / (end(X,E) - st(X,E)).

    When the Y interval is empty every point maps to its single boundary;
    when the X interval is empty the single source point maps to the start
    of the Y interval (the resulting vertical jump is handled by the band
    validator's gap bridging).
    """
    candidates = np.zeros(n, dtype=float)
    for idx in range(partition.num_intervals):
        ix, iy = partition.corresponding(idx)
        x_len = ix.end - ix.start
        y_len = iy.end - iy.start
        for i in range(ix.start, ix.end + 1):
            if x_len == 0:
                candidates[i] = iy.start
            elif y_len == 0:
                candidates[i] = iy.start
            else:
                fraction = (i - ix.start) / x_len
                candidates[i] = iy.start + fraction * y_len
    # Interval ends overlap between consecutive intervals; the last write
    # wins, which matches taking the later interval's mapping at the shared
    # boundary point.  Endpoints are forced onto the grid corners so that a
    # warp path always exists.
    candidates[0] = 0.0
    candidates[-1] = m - 1
    return np.clip(candidates, 0, m - 1)


def _interval_widths(partition: IntervalPartition) -> np.ndarray:
    """Widths (sample counts) of the second series' intervals."""
    return np.asarray([iv.length for iv in partition.intervals_y], dtype=float)


def _averaged_width(
    widths: np.ndarray, index: int, neighbor_radius: int
) -> float:
    """Mean width of the intervals within ±neighbor_radius of *index*."""
    lo = max(0, index - neighbor_radius)
    hi = min(widths.size - 1, index + neighbor_radius)
    return float(widths[lo: hi + 1].mean())


def reference_build_constraint_band(
    n: int,
    m: int,
    spec: Union[str, ConstraintSpec],
    partition: Optional[IntervalPartition] = None,
    config: Optional[SDTWConfig] = None,
) -> np.ndarray:
    """Build the per-row window band for a constraint specification.

    Parameters
    ----------
    n, m:
        Lengths of the two series (the band has ``n`` rows over ``m`` columns).
    spec:
        Constraint family: ``"fc,fw"``, ``"fc,aw"``, ``"ac,fw"``,
        ``"ac,aw"``, ``"ac2,aw"`` or a :class:`ConstraintSpec`.
    partition:
        Corresponding interval partition (required by the adaptive
        variants; when ``None`` or trivial those variants degrade to their
        fixed counterparts, which is the documented fallback when no
        salient features could be matched).
    config:
        sDTW configuration providing the fixed width fraction, adaptive
        width bounds and the default neighbour radius.

    Returns
    -------
    numpy.ndarray
        Validated band of shape ``(n, 2)``.
    """
    if config is None:
        config = SDTWConfig()
    parsed = parse_constraint_spec(spec)

    # Pure Sakoe-Chiba short-circuit.
    if parsed.core == "fixed" and parsed.width == "fixed":
        return sakoe_chiba_band_fraction(n, m, config.width_fraction)

    have_partition = partition is not None and partition.num_intervals > 1

    # Candidate (core) points.
    if parsed.core == "adaptive" and have_partition:
        candidates = _candidate_points_adaptive_core(n, m, partition)
    else:
        candidates = _candidate_points_fixed_core(n, m)

    # Per-point widths.
    fixed_width = max(1.0, config.width_fraction * m)
    lower_bound = max(1.0, config.adaptive_width_lower_bound * m)
    upper_bound = (
        config.adaptive_width_upper_bound * m
        if config.adaptive_width_upper_bound is not None
        else float(m)
    )
    if parsed.width == "adaptive" and have_partition:
        widths_y = _interval_widths(partition)
        radius = parsed.neighbor_radius or 0
        per_point_width = np.empty(n, dtype=float)
        for i in range(n):
            j = int(round(candidates[i]))
            interval_idx = partition.interval_index_for_y(j)
            if radius > 0:
                width = _averaged_width(widths_y, interval_idx, radius)
            else:
                width = widths_y[interval_idx]
            per_point_width[i] = min(max(width, lower_bound), upper_bound)
    elif parsed.width == "adaptive":
        # No partition information: fall back to the lower bound width.
        per_point_width = np.full(n, max(lower_bound, fixed_width))
    else:
        per_point_width = np.full(n, fixed_width)

    half = np.ceil(per_point_width / 2.0)
    lo = np.floor(candidates - half).astype(int)
    hi = np.ceil(candidates + half).astype(int)
    band = np.stack([lo, hi], axis=1)
    return validate_band(band, n, m, repair=True)


def reference_shift_snapshot_features(
    features: Sequence[SalientFeature],
    shift: int,
    window_length: int,
) -> List[SalientFeature]:
    """Re-express snapshot features in the coordinates of a newer window.

    The extractor's snapshot window starts *shift* ticks before the
    current one; features that slid off the front are dropped and scopes
    are clipped to the new window extent, mirroring what batch extraction
    clips at the series boundary.
    """
    if shift == 0:
        return list(features)
    shifted: List[SalientFeature] = []
    limit = float(window_length - 1)
    for feature in features:
        position = feature.position - shift
        if position < 0.0 or position > limit:
            continue
        shifted.append(
            replace(
                feature,
                position=position,
                scope_start=max(0.0, feature.scope_start - shift),
                scope_end=min(limit, feature.scope_end - shift),
            )
        )
    return shifted


def reference_build_stream_band(
    spec: ConstraintSpec,
    window_features: Sequence[SalientFeature],
    pattern_features: Sequence[SalientFeature],
    window_length: int,
    pattern_length: int,
    config: SDTWConfig,
) -> np.ndarray:
    """Locally relevant band for (window, pattern) from feature snapshots.

    This is the streaming counterpart of :meth:`repro.core.sdtw.SDTW.build_band`:
    matching + inconsistency pruning + interval partitioning (Sections
    3.2–3.3) run on pre-extracted features, so the only per-tick cost is
    the alignment itself.  Shared by the online matcher and the offline
    reference scan so both derive identical bands from identical features.
    """
    matches = reference_match_salient_features(
        window_features, pattern_features, config.matching
    )
    consistent = reference_prune_inconsistent_pairs(matches, config.matching)
    partition = reference_build_interval_partition(
        consistent, window_length, pattern_length
    )
    band = reference_build_constraint_band(
        window_length, pattern_length, spec, partition, config
    )
    if config.symmetric_band:
        reverse_matches = reference_match_salient_features(
            pattern_features, window_features, config.matching
        )
        reverse_consistent = reference_prune_inconsistent_pairs(
            reverse_matches, config.matching
        )
        reverse_partition = reference_build_interval_partition(
            reverse_consistent, pattern_length, window_length
        )
        reverse_band = reference_build_constraint_band(
            pattern_length, window_length, spec, reverse_partition, config
        )
        band = build_symmetric_band(
            band, reverse_band, window_length, pattern_length
        )
    return band


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
SPECS = ("fc,aw", "ac,fw", "ac,aw", "ac2,aw")
SIGMAS = (1.0, 2.0 ** 0.5, 2.0, 2.0 * 2.0 ** 0.5, 4.0, 8.0)
ORACLE = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def make_series(length: int, seed: int, quantize: bool = False) -> np.ndarray:
    """A seeded wave with a random walk; quantized series have plateaus
    and exact ties, which exercise every tie rule."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, rng.uniform(2.0, 12.0), length)
    values = (
        np.sin(rng.uniform(0.5, 3.0) * t)
        + 0.5 * np.sin(3.7 * t + rng.uniform(0.0, 6.0))
        + np.cumsum(rng.normal(0.0, 0.1, length))
    )
    return np.round(values, 1) if quantize else values


series_args = st.tuples(
    st.integers(16, 300), st.integers(0, 2 ** 32 - 1), st.booleans()
)
descriptor_configs = st.builds(
    DescriptorConfig,
    num_bins=st.sampled_from([4, 16, 64, 64]),
    gaussian_weight_factor=st.sampled_from([0.1, 0.5]),
    normalize=st.booleans(),
    clip_value=st.sampled_from([0.2, 0.5, 1.0]),
)
matching_configs = st.builds(
    MatchingConfig,
    max_amplitude_difference=st.sampled_from([0.05, 0.3, 1.0, 10.0]),
    max_scale_ratio=st.sampled_from([1.0, 1.5, 4.0]),
    distinctiveness_ratio=st.sampled_from([1.01, 1.2, 2.0]),
    require_distinctive=st.booleans(),
)
sdtw_configs = st.builds(
    SDTWConfig,
    descriptor=st.builds(DescriptorConfig, num_bins=st.sampled_from([16, 64])),
    width_fraction=st.sampled_from([0.05, 0.1, 0.3]),
    adaptive_width_lower_bound=st.sampled_from([0.0, 0.05, 0.2]),
    adaptive_width_upper_bound=st.sampled_from([None, 0.5, 1.0]),
    symmetric_band=st.booleans(),
)


def positions_for(length: int, draws) -> List[float]:
    """Map ``(kind, value)`` draws onto positions, many near both ends."""
    positions = []
    for kind, value in draws:
        if kind == "start":
            positions.append(float(value))
        elif kind == "end":
            positions.append(float(length - 1 - value))
        elif kind == "sample":
            positions.append(float(round(value * (length - 1))))
        else:
            positions.append(value * (length - 1))
    return positions


position_draws = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["start", "end"]), st.integers(0, 3)),
        st.tuples(st.sampled_from(["sample", "between"]), st.floats(0.0, 1.0)),
    ),
    min_size=1, max_size=24,
)


def assert_features_identical(new: Sequence[SalientFeature], old) -> None:
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert (a.position, a.sigma, a.scope_start, a.scope_end) == (
            b.position, b.sigma, b.scope_start, b.scope_end
        )
        assert (a.octave, a.level, a.scale_class) == (b.octave, b.level, b.scale_class)
        assert (a.amplitude, a.mean_amplitude, a.dog_value) == (
            b.amplitude, b.mean_amplitude, b.dog_value
        )
        assert np.array_equal(a.descriptor, b.descriptor)


def assert_pairs_identical(new: Sequence[MatchedPair], old) -> None:
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.descriptor_distance == b.descriptor_distance
        assert_features_identical([a.feature_x, a.feature_y], [b.feature_x, b.feature_y])


@st.composite
def partitions(draw):
    """Partitions of n and m samples (n != m allowed) whose cuts include
    coincident boundaries and series ends, i.e. empty intervals."""
    n = draw(st.integers(16, 300))
    m = draw(st.integers(16, 300))
    count = draw(st.integers(0, 9))

    def cuts(length):
        return draw(st.lists(
            st.one_of(
                st.floats(-2.0, length + 1.0),
                st.sampled_from([0.0, 1.0, length / 2.0, length - 2.0, length - 1.0]),
            ),
            min_size=count, max_size=count,
        ))

    return n, m, partition_from_boundaries(cuts(n), cuts(m), n, m)


# ---------------------------------------------------------------------- #
# Properties
# ---------------------------------------------------------------------- #
@ORACLE
@given(
    series_args,
    st.sampled_from([0.0, 0.0096, 0.05, 0.3]),
    st.sampled_from([0.0, 0.01, 0.1]),
)
def test_detect_keypoints_matches_reference(args, epsilon, contrast):
    space = build_scale_space(
        make_series(*args),
        ScaleSpaceConfig(epsilon=epsilon, contrast_threshold=contrast),
    )
    assert keypoint_module.detect_keypoints(space) == reference_detect_keypoints(space)


@ORACLE
@given(
    series_args,
    position_draws,
    st.lists(st.one_of(st.sampled_from(SIGMAS), st.floats(0.3, 12.0)),
             min_size=1, max_size=24),
    descriptor_configs,
)
def test_descriptors_match_reference(args, draws, sigma_draws, config):
    series = make_series(*args)
    # Off-grid positions make offsets whose square differs between
    # Python's ``**`` (libm pow) and numpy's (x * x) for about 1 in 1000;
    # a few dozen per example let the property see that trap.
    off_grid = np.random.default_rng(args[1]).uniform(0.0, series.size - 1.0, 32)
    positions = positions_for(series.size, draws) + off_grid.tolist()
    sigmas = [sigma_draws[k % len(sigma_draws)] for k in range(len(positions))]
    expected = [
        reference_compute_descriptor(series, position, sigma, config)
        for position, sigma in zip(positions, sigmas)
    ]
    for position, sigma, old in zip(positions, sigmas, expected):
        assert np.array_equal(compute_descriptor(series, position, sigma, config), old)
    gradients = {sigma: np.gradient(gaussian_smooth(series, sigma)) for sigma in sigmas}
    batch = compute_descriptors(
        series.size, positions, sigmas, [gradients[s] for s in sigmas], config
    )
    for row, old in zip(batch, expected):
        assert np.array_equal(row, old)


@ORACLE
@given(series_args, st.sampled_from([16, 64]), st.sampled_from([0.0096, 0.2]))
def test_extraction_matches_reference(args, num_bins, epsilon):
    config = SDTWConfig(
        scale_space=ScaleSpaceConfig(epsilon=epsilon),
        descriptor=DescriptorConfig(num_bins=num_bins),
    )
    series = make_series(*args)
    assert_features_identical(
        extract_salient_features(series, config),
        reference_extract_salient_features(series, config),
    )


@st.composite
def synthetic_features(draw, length: int = 6):
    """Features with descriptors, amplitudes and σ from small pools, so
    distances, gates and runner-ups tie exactly."""
    pool = [
        np.array(vector, dtype=float)
        for vector in ([1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0.5, 0.5, 0, 0, 0, 0],
                       [0, 0, 1, 1, 0, 0], [0.2, 0.1, 0.4, 0, 0.3, 0.6])
    ]
    count = draw(st.integers(0, 12))
    features = []
    for k in range(count):
        descriptor = pool[draw(st.integers(0, len(pool) - 1))][:draw(st.sampled_from([length, 4]))]
        sigma = draw(st.sampled_from([1.0, 2.0, 3.0, 8.0]))
        position = float(draw(st.integers(0, 60)))
        features.append(SalientFeature(
            position=position, sigma=sigma,
            scope_start=position - 3 * sigma, scope_end=position + 3 * sigma,
            octave=0, level=0,
            amplitude=draw(st.sampled_from([-1.0, 0.0, 0.25, 1.0])),
            mean_amplitude=0.0, dog_value=0.1, scale_class="fine",
            descriptor=descriptor,
        ))
    features.sort(key=lambda f: (f.position, f.sigma))
    return features


@ORACLE
@given(synthetic_features(), synthetic_features(), matching_configs)
def test_matching_matches_reference_on_ties(features_x, features_y, config):
    assert_pairs_identical(
        match_salient_features(features_x, features_y, config),
        reference_match_salient_features(features_x, features_y, config),
    )


@ORACLE
@given(series_args, series_args, series_args, matching_configs, st.integers(0, 80))
def test_matching_of_shifted_sets_matches_reference(args_x, args_y, args_z, config, first):
    # Consecutive shifts of one stacked set, each matched against two
    # sets in both argument orders.
    features_x = extract_salient_features(make_series(*args_x))
    others = [extract_salient_features(make_series(*args)) for args in (args_y, args_z)]
    stacked_others = [FeatureSet(features) for features in others]
    window = min(args_x[0], 64)
    stacked = FeatureSet(features_x)
    for shift in range(first, first + 6):
        shifted = shift_snapshot_features(stacked, shift, window)
        expected = reference_shift_snapshot_features(features_x, shift, window)
        assert_features_identical(shifted, expected)
        for features_y, stacked_y in zip(others, stacked_others):
            assert_pairs_identical(
                match_salient_features(shifted, stacked_y, config),
                reference_match_salient_features(expected, features_y, config),
            )
            assert_pairs_identical(
                match_salient_features(features_y, shifted, config),
                reference_match_salient_features(features_y, expected, config),
            )


@ORACLE
@given(st.lists(partitions(), min_size=1, max_size=4))
def test_interval_lookup_matches_binary_search(drawn):
    # One lookup over a stack of partitions (of different lengths), with
    # samples beyond both ends, against each partition's binary search.
    stacks = [partition.stack() for _, _, partition in drawn]
    samples = np.arange(-3, max(m for _, m, _ in drawn) + 3)
    found = locate_stacked(
        np.concatenate([stack.starts_y for stack in stacks]),
        np.concatenate([stack.ends_y for stack in stacks]),
        np.concatenate([stack.counts for stack in stacks]),
        np.tile(samples, (len(drawn), 1)),
    )
    for row, (_, _, partition) in zip(found, drawn):
        assert row.tolist() == [partition.interval_index_for_y(int(j)) for j in samples]


@ORACLE
@given(partitions(), st.sampled_from(SPECS), sdtw_configs)
def test_constraint_bands_match_reference(drawn, spec, config):
    n, m, partition = drawn
    assert np.array_equal(
        bands._adaptive_cores(n, m, partition.stack())[0],
        _candidate_points_adaptive_core(n, m, partition),
    )
    assert np.array_equal(
        build_constraint_band(n, m, spec, partition, config),
        reference_build_constraint_band(n, m, spec, partition, config),
    )


@ORACLE
@given(series_args, series_args, st.sampled_from(SPECS), sdtw_configs, st.integers(0, 40))
def test_stream_band_matches_reference(args_w, args_p, spec, config, shift):
    window = make_series(*args_w)
    pattern = make_series(*args_p)
    snapshot = extract_salient_features(window, config)
    pattern_features = extract_salient_features(pattern, config)
    parsed = parse_constraint_spec(spec)
    assert np.array_equal(
        build_stream_band(
            parsed, shift_snapshot_features(FeatureSet(snapshot), shift, window.size),
            FeatureSet(pattern_features), window.size, pattern.size, config,
        ),
        reference_build_stream_band(
            parsed, reference_shift_snapshot_features(snapshot, shift, window.size),
            pattern_features, window.size, pattern.size, config,
        ),
    )


@ORACLE
@given(
    st.integers(16, 96),
    st.integers(0, 2 ** 32 - 1),
    st.booleans(),
    st.sampled_from(SPECS),
    sdtw_configs,
    st.booleans(),
    st.integers(1, 8),
    st.integers(0, 3),
)
def test_stream_bands_match_per_window_bands(
    m, seed, quantize, spec, config, prune, hop, empty
):
    # A block of windows over three consecutive snapshots, each read at
    # shifts 0 .. hop - 1 (one of them empty when ``empty`` < 3), against
    # the per-window band and the reference pipeline.
    config = replace(
        config, matching=replace(config.matching, prune_inconsistencies=prune)
    )
    stream = make_series(m + 3 * hop, seed, quantize)
    pattern_features = extract_salient_features(
        make_series(m, seed ^ 1, quantize), config
    )
    snapshots: List[FeatureSet] = []
    shifts: List[int] = []
    for block in range(3):
        start = block * hop
        snapshot = FeatureSet(
            () if block == empty
            else extract_salient_features(stream[start: start + m], config)
        )
        snapshots += [snapshot] * hop
        shifts += list(range(hop))
    parsed = parse_constraint_spec(spec)
    pattern = FeatureSet(pattern_features)
    got = build_stream_bands(parsed, snapshots, shifts, pattern, m, config)
    assert got.shape == (len(shifts), m, 2)
    for band, snapshot, shift in zip(got, snapshots, shifts):
        assert np.array_equal(band, build_stream_band(
            parsed, shift_snapshot_features(snapshot, shift, m), pattern,
            m, m, config,
        ))
        assert np.array_equal(band, reference_build_stream_band(
            parsed, reference_shift_snapshot_features(list(snapshot), shift, m),
            pattern_features, m, m, config,
        ))


@ORACLE
@given(
    synthetic_features(),
    synthetic_features(),
    matching_configs,
    st.sampled_from(SPECS),
    st.lists(st.integers(0, 12), min_size=1, max_size=8),
)
def test_stream_bands_match_per_window_bands_on_ties(
    snapshot, pattern_features, matching, spec, shifts
):
    # Hand-built features: tied distances, scores and positions, scopes
    # past the window (kept as they are at shift 0), features outside it.
    config = SDTWConfig(matching=matching)
    snapshot, pattern = FeatureSet(snapshot), FeatureSet(pattern_features)
    parsed = parse_constraint_spec(spec)
    got = build_stream_bands(parsed, [snapshot] * len(shifts), shifts, pattern, 40, config)
    for band, shift in zip(got, shifts):
        assert np.array_equal(band, reference_build_stream_band(
            parsed, reference_shift_snapshot_features(list(snapshot), shift, 40),
            pattern_features, 40, 40, config,
        ))


@ORACLE
@given(synthetic_features(), synthetic_features(), matching_configs, st.booleans())
def test_pruning_and_partition_match_reference(features_x, features_y, config, prune):
    config = replace(config, prune_inconsistencies=prune)
    matches = match_salient_features(features_x, features_y, config)
    ours = prune_inconsistent_pairs(matches, config)
    theirs = reference_prune_inconsistent_pairs(matches, config)
    assert ours == theirs
    assert [repr(value) for value in ours.boundaries_x + ours.boundaries_y] == [
        repr(value) for value in theirs.boundaries_x + theirs.boundaries_y
    ]
    assert build_interval_partition(ours, 64, 70) == (
        reference_build_interval_partition(theirs, 64, 70)
    )


@ORACLE
@given(
    st.one_of(
        series_args.map(lambda args: extract_salient_features(make_series(*args))),
        synthetic_features(),
    ),
    st.integers(0, 40),
)
def test_feature_set_arrays_match_items(features, shift):
    stacked = FeatureSet(features)
    for view in (stacked, stacked.shifted(shift, 40)):
        assert view.positions.tolist() == [f.position for f in view]
        assert view.scope_starts.tolist() == [f.scope_start for f in view]
        assert view.scope_ends.tolist() == [f.scope_end for f in view]
        assert view.mean_amplitudes.tolist() == [f.mean_amplitude for f in view]
    assert_features_identical(
        stacked.shifted(shift, 40),
        reference_shift_snapshot_features(features, shift, 40),
    )


@pytest.mark.parametrize("hop", [1, 3, 8])
@pytest.mark.parametrize("window_length", [64, 97])
def test_incremental_extractor_matches_batch_extraction(hop, window_length):
    rng = np.random.default_rng(hop * 1000 + window_length)
    stream = make_series(window_length + 60 * hop, int(rng.integers(2 ** 32)))
    config = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))
    extractor = IncrementalExtractor(window_length, config, hop=hop)
    buffer = StreamBuffer(capacity=stream.size)
    refreshes = 0
    for value in stream:
        buffer.append(value)
        if extractor.observe(buffer):
            refreshes += 1
            window = buffer.view(window_length)
            assert_features_identical(
                extractor.features(), extract_salient_features(window, config)
            )
    assert refreshes >= 50
