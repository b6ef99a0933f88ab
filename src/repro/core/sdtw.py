"""The sDTW driver: salient features -> matching -> pruning -> band -> DTW.

This module exposes the library's primary public API:

* :class:`SDTW` — an object that caches extracted salient features per
  series (extraction is a one-time cost per series, as Section 3.4 of the
  paper emphasises) and computes constrained DTW distances under any of
  the paper's constraint families.
* :func:`sdtw_distance` — a one-shot functional entry point.

Every result records a timing breakdown (feature extraction, matching +
inconsistency pruning, dynamic programming) so the experiment harness can
reproduce the execution-time analysis of Figure 17 and the time-gain
measure used throughout Section 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import as_series
from ..dtw.banded import BandedDTWResult, banded_dtw
from ..dtw.constraints import full_band
from ..dtw.full import dtw
from ..dtw.path import WarpPath
from .alignment import unite_reverse_band
from .bands import (
    ConstraintSpec,
    ResolvedConstraint,
    build_constraint_band,
    resolve_constraint,
)
from .config import SDTWConfig
from .consistency import ConsistentAlignment, prune_inconsistent_pairs
from .features import FeatureSet, SalientFeature, extract_salient_features
from .intervals import IntervalPartition, build_interval_partition
from .matching import MatchedPair, match_salient_features


@dataclass(frozen=True)
class SDTWAlignment:
    """Intermediate artefacts of the sDTW pipeline for one series pair.

    Attributes
    ----------
    features_x, features_y:
        Salient features of the two series, stacked.
    matches:
        Dominant matching pairs before inconsistency pruning.
    consistent:
        The consistent alignment after pruning.
    partition:
        Corresponding interval partition induced by the committed scope
        boundaries.
    matching_seconds:
        Wall-clock time spent on matching + inconsistency pruning +
        partitioning (the paper's task (b)).
    """

    features_x: FeatureSet
    features_y: FeatureSet
    matches: Tuple[MatchedPair, ...]
    consistent: ConsistentAlignment
    partition: IntervalPartition
    matching_seconds: float


@dataclass(frozen=True)
class SDTWResult:
    """Result of a constrained (or full) DTW computation.

    Attributes
    ----------
    distance:
        The computed DTW distance under the chosen constraint.
    constraint:
        Canonical constraint label (``"full"``, ``"fc,fw"``, ``"ac,aw"``, …).
    path:
        The constrained-optimal warp path (``None`` if not requested).
    cells_filled:
        Number of DTW grid cells evaluated by the dynamic program.
    total_cells:
        ``N * M`` — the full grid size, for computing cell savings.
    extract_seconds:
        Time spent extracting salient features *for this call* (0 when the
        features came from the cache, matching the paper's treatment of
        extraction as a one-time, amortisable cost).
    matching_seconds:
        Time spent on matching and inconsistency pruning (task (b)).
    dp_seconds:
        Time spent filling the (banded) DTW grid and backtracking (task (c)).
    alignment:
        The intermediate alignment artefacts (``None`` for the
        non-salient-feature constraints).
    band:
        The constraint band actually used (``None`` for full DTW).
    abandoned:
        True when an ``abandon_threshold`` was given and the dynamic
        program stopped early because the distance provably exceeds it
        (``distance`` is then ``inf``).
    """

    distance: float
    constraint: str
    path: Optional[WarpPath]
    cells_filled: int
    total_cells: int
    extract_seconds: float = 0.0
    matching_seconds: float = 0.0
    dp_seconds: float = 0.0
    alignment: Optional[SDTWAlignment] = None
    band: Optional[np.ndarray] = None
    abandoned: bool = False

    @property
    def compute_seconds(self) -> float:
        """Per-comparison time: matching + DP (tasks (b) and (c))."""
        return self.matching_seconds + self.dp_seconds

    @property
    def cell_savings(self) -> float:
        """Fraction of the full grid that was *not* filled."""
        if self.total_cells == 0:
            return 0.0
        return 1.0 - self.cells_filled / self.total_cells


class SDTW:
    """Salient-feature-based DTW with locally relevant constraints.

    Parameters
    ----------
    config:
        Pipeline configuration (scale space, descriptors, matching
        thresholds, band widths).  Defaults to the paper's settings.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import SDTW
    >>> x = np.sin(np.linspace(0, 6.28, 120))
    >>> y = np.sin(np.linspace(0, 6.28, 150) - 0.4)
    >>> engine = SDTW()
    >>> result = engine.distance(x, y, constraint="ac,aw")
    >>> result.distance >= 0
    True
    """

    def __init__(self, config: Optional[SDTWConfig] = None) -> None:
        self.config = config if config is not None else SDTWConfig()
        self._feature_cache: Dict[int, FeatureSet] = {}

    # ------------------------------------------------------------------ #
    # Feature extraction and caching
    # ------------------------------------------------------------------ #
    def clear_cache(self) -> None:
        """Drop all cached salient features."""
        self._feature_cache.clear()

    def _cache_key(self, series: np.ndarray) -> int:
        return hash(series.tobytes())

    def extract_features(
        self, series: Union[Sequence[float], np.ndarray]
    ) -> Tuple[FeatureSet, float]:
        """Extract (or fetch from cache) the salient features of a series.

        The cache holds one :class:`~repro.core.features.FeatureSet` per
        series, so matching against a cached series stacks nothing.

        Returns
        -------
        (features, seconds):
            The features and the wall-clock extraction time (0.0 on a
            cache hit).
        """
        values = as_series(series, "series")
        key = self._cache_key(values)
        if key in self._feature_cache:
            return self._feature_cache[key], 0.0
        start = time.perf_counter()
        features = extract_salient_features(values, self.config)
        elapsed = time.perf_counter() - start
        self._feature_cache[key] = features
        return features, elapsed

    def query_features(
        self, series: Union[Sequence[float], np.ndarray]
    ) -> Tuple[FeatureSet, float]:
        """Features of a series, without adding a new series to the cache.

        A series already cached (a stored series) is served from the
        cache; any other is extracted and returned, not kept.  Callers
        that compare one transient query with many cached series (the
        distance engine's alignment stage) extract the query once here,
        so the cache holds the stored series only.

        Returns
        -------
        (features, seconds):
            As :meth:`extract_features`.
        """
        values = as_series(series, "series")
        cached = self._feature_cache.get(self._cache_key(values))
        if cached is not None:
            return cached, 0.0
        start = time.perf_counter()
        features = extract_salient_features(values, self.config)
        return features, time.perf_counter() - start

    # ------------------------------------------------------------------ #
    # Alignment
    # ------------------------------------------------------------------ #
    def align(
        self,
        x: Union[Sequence[float], np.ndarray],
        y: Union[Sequence[float], np.ndarray],
        *,
        features_x: Optional[Sequence[SalientFeature]] = None,
        features_y: Optional[Sequence[SalientFeature]] = None,
    ) -> SDTWAlignment:
        """Run matching + inconsistency pruning + interval partitioning.

        Features not passed in are extracted through the cache; the
        returned ``matching_seconds`` covers only the per-pair work (the
        paper's task (b)).
        """
        xs = as_series(x, "x")
        ys = as_series(y, "y")
        if features_x is None:
            features_x, _ = self.extract_features(xs)
        if features_y is None:
            features_y, _ = self.extract_features(ys)
        start = time.perf_counter()
        features_x = FeatureSet.of(features_x)
        features_y = FeatureSet.of(features_y)
        matches = match_salient_features(features_x, features_y, self.config.matching)
        consistent = prune_inconsistent_pairs(matches, self.config.matching)
        partition = build_interval_partition(consistent, xs.size, ys.size)
        matching_seconds = time.perf_counter() - start
        return SDTWAlignment(
            features_x=features_x,
            features_y=features_y,
            matches=tuple(matches),
            consistent=consistent,
            partition=partition,
            matching_seconds=matching_seconds,
        )

    # ------------------------------------------------------------------ #
    # Band construction
    # ------------------------------------------------------------------ #
    def build_band(
        self,
        x: Union[Sequence[float], np.ndarray],
        y: Union[Sequence[float], np.ndarray],
        constraint: Union[str, ConstraintSpec, ResolvedConstraint],
        alignment: Optional[SDTWAlignment] = None,
    ) -> Tuple[np.ndarray, Optional[SDTWAlignment]]:
        """Build the constraint band for a pair of series.

        For the salient-feature constraints an alignment is computed (or
        reused if supplied); the shape-only ones (the Sakoe–Chiba
        baseline, ``full`` and ``itakura``) need none.
        """
        xs = as_series(x, "x")
        ys = as_series(y, "y")
        resolved = resolve_constraint(constraint)
        if not resolved.aligns:
            return resolved.band(xs.size, ys.size, self.config), alignment
        if alignment is None:
            alignment = self.align(xs, ys)
        band = build_constraint_band(
            xs.size, ys.size, resolved, alignment.partition, self.config
        )
        if self.config.symmetric_band:
            band = unite_reverse_band(
                band, resolved, alignment.features_x, alignment.features_y,
                xs.size, ys.size, self.config,
            )
        return band, alignment

    # ------------------------------------------------------------------ #
    # Distances
    # ------------------------------------------------------------------ #
    def distance(
        self,
        x: Union[Sequence[float], np.ndarray],
        y: Union[Sequence[float], np.ndarray],
        constraint: Union[str, ConstraintSpec, ResolvedConstraint] = "ac,aw",
        *,
        return_path: bool = False,
        abandon_threshold: Optional[float] = None,
    ) -> SDTWResult:
        """Compute the DTW distance under a constraint family.

        Parameters
        ----------
        x, y:
            The two time series.
        constraint:
            ``"full"`` for the exact DTW, or one of ``"fc,fw"``,
            ``"fc,aw"``, ``"ac,fw"``, ``"ac,aw"``, ``"ac2,aw"``,
            ``"itakura"`` (slope 2), or anything else
            :func:`~repro.core.bands.resolve_constraint` takes.
        return_path:
            Whether to also backtrack the warp path.
        abandon_threshold:
            Early-abandoning threshold (k-NN search): stop the dynamic
            program as soon as the distance provably exceeds it (see
            :func:`repro.dtw.banded.banded_dtw`).  Requires
            ``return_path=False``.

        Returns
        -------
        SDTWResult
        """
        xs = as_series(x, "x")
        ys = as_series(y, "y")
        total_cells = xs.size * ys.size
        resolved = resolve_constraint(constraint)

        if resolved.label == "full":
            start = time.perf_counter()
            if abandon_threshold is not None:
                # The full grid expressed as a band: identical DP, but the
                # banded kernel supports early abandonment.
                banded_full = banded_dtw(
                    xs, ys, full_band(xs.size, ys.size),
                    self.config.pointwise_distance, return_path=return_path,
                    abandon_threshold=abandon_threshold,
                )
                dp_seconds = time.perf_counter() - start
                return SDTWResult(
                    distance=banded_full.distance,
                    constraint="full",
                    path=banded_full.path,
                    cells_filled=banded_full.cells_filled,
                    total_cells=total_cells,
                    dp_seconds=dp_seconds,
                    abandoned=banded_full.abandoned,
                )
            exact = dtw(xs, ys, self.config.pointwise_distance, return_path=return_path)
            dp_seconds = time.perf_counter() - start
            return SDTWResult(
                distance=exact.distance,
                constraint="full",
                path=exact.path,
                cells_filled=exact.cells_filled,
                total_cells=total_cells,
                dp_seconds=dp_seconds,
            )

        extract_seconds = 0.0
        alignment: Optional[SDTWAlignment] = None
        if resolved.aligns:
            features_x, ex = self.extract_features(xs)
            features_y, ey = self.extract_features(ys)
            extract_seconds = ex + ey
            alignment = self.align(
                xs, ys, features_x=features_x, features_y=features_y
            )

        band, alignment = self.build_band(xs, ys, resolved, alignment)
        start = time.perf_counter()
        banded: BandedDTWResult = banded_dtw(
            xs, ys, band, self.config.pointwise_distance, return_path=return_path,
            abandon_threshold=abandon_threshold,
        )
        dp_seconds = time.perf_counter() - start
        return SDTWResult(
            distance=banded.distance,
            constraint=resolved.label,
            path=banded.path,
            cells_filled=banded.cells_filled,
            total_cells=total_cells,
            extract_seconds=extract_seconds,
            matching_seconds=alignment.matching_seconds if alignment else 0.0,
            dp_seconds=dp_seconds,
            alignment=alignment,
            band=banded.band,
            abandoned=banded.abandoned,
        )

    def distance_matrix(
        self,
        series: Sequence[Union[Sequence[float], np.ndarray]],
        constraint: Union[str, ConstraintSpec] = "ac,aw",
    ) -> np.ndarray:
        """Pairwise distance matrix over a collection of series.

        The matrix is filled for every ordered pair ``(a, b)`` with
        ``a != b`` and then symmetrised by averaging, because the adaptive
        constraints are not symmetric in general (Section 3.3.3); the
        diagonal is zero.
        """
        arrays = [as_series(s, f"series[{k}]") for k, s in enumerate(series)]
        size = len(arrays)
        out = np.zeros((size, size))
        for a in range(size):
            for b in range(size):
                if a == b:
                    continue
                out[a, b] = self.distance(arrays[a], arrays[b], constraint).distance
        return (out + out.T) / 2.0


def sdtw_distance(
    x: Union[Sequence[float], np.ndarray],
    y: Union[Sequence[float], np.ndarray],
    constraint: Union[str, ConstraintSpec] = "ac,aw",
    config: Optional[SDTWConfig] = None,
) -> float:
    """One-shot sDTW distance between two series.

    Equivalent to ``SDTW(config).distance(x, y, constraint).distance`` but
    without retaining a feature cache.  Prefer the :class:`SDTW` object
    when comparing many series, so extraction is amortised.
    """
    engine = SDTW(config)
    return engine.distance(x, y, constraint).distance
