"""Dominant salient-feature matching between two time series.

Implements Section 3.2.1 of the paper: features from the first series are
paired with features of the second series using Euclidean descriptor
distance, subject to

* an amplitude gate (difference below τ_a),
* a scale gate (σ ratio below τ_s), and
* a distinctiveness test: the best candidate is accepted only if no other
  candidate's descriptor distance is within a factor τ_d of it (Lowe's
  ratio test, with distances where smaller is better).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import MatchingConfig
from .features import FeatureSet, SalientFeature


@dataclass(frozen=True)
class MatchedPair:
    """A matched pair of salient features (one from each series).

    Attributes
    ----------
    feature_x:
        The feature from the first series.
    feature_y:
        The feature from the second series.
    descriptor_distance:
        Euclidean distance between the two descriptors (smaller = closer).
    """

    feature_x: SalientFeature
    feature_y: SalientFeature
    descriptor_distance: float

    @property
    def descriptor_similarity(self) -> float:
        """A similarity score in (0, 1]: ``1 / (1 + distance)``."""
        return 1.0 / (1.0 + self.descriptor_distance)

    @property
    def center_offset(self) -> float:
        """Temporal offset between the two feature centres."""
        return abs(self.feature_x.position - self.feature_y.position)


def match_salient_features(
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
    grid — distances, gates, each row's best and runner-up — keeping the
    matching step a small fraction of the per-comparison cost (the
    property Figure 17 of the paper reports).  Only accepted matches
    touch the feature objects.  The descriptor matrices and the amplitude
    and σ arrays come from :class:`~repro.core.features.FeatureSet`, so a
    set passed as one is stacked once, not on every call.  The distance
    grid is computed on exactly the two given sets: a matmul over a
    subset of rows is not bit-equal to those rows of a larger product, so
    no grid is sliced from another.  The decisions (which rows match, at
    what distance) come from :func:`match_decisions`, which the stream
    block band builder calls directly on each window's rows of a
    snapshot.

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
    if not features_x or not features_y:
        return []
    set_x = FeatureSet.of(features_x)
    set_y = FeatureSet.of(features_y)
    matches = [
        MatchedPair(
            feature_x=set_x[i],
            feature_y=set_y[j],
            descriptor_distance=distance,
        )
        for i, j, distance in zip(*match_decisions(set_x, set_y, config))
    ]
    matches.sort(key=lambda pair: pair.feature_x.position)
    return matches


Decisions = Tuple[List[int], List[int], List[float]]


def match_gates(
    set_x: FeatureSet, set_y: FeatureSet, config: MatchingConfig
) -> np.ndarray:
    """The amplitude and scale gates of every (x, y) feature pair.

    True where the pair is admissible: amplitude difference within τ_a
    and σ ratio within τ_s.  The gates are elementwise, so the gates of a
    selection of *set_x*'s rows are those rows of this matrix.
    """
    admissible = (
        np.abs(np.subtract.outer(set_x.amplitudes, set_y.amplitudes))
        <= config.max_amplitude_difference
    )
    smaller = np.minimum.outer(set_x.sigmas, set_y.sigmas)
    ratio = np.maximum.outer(set_x.sigmas, set_y.sigmas) / np.maximum(
        smaller, 1e-12, out=smaller
    )
    admissible &= ratio <= config.max_scale_ratio
    return admissible


def match_decisions(
    set_x: FeatureSet,
    set_y: FeatureSet,
    config: MatchingConfig,
    rows: Optional[List[int]] = None,
    gates: Optional[np.ndarray] = None,
) -> Decisions:
    """The matching rows of *set_x*, their best rows of *set_y* and distances.

    With *rows*, the first set is those rows of *set_x*, the arrays a
    window selecting them holds (matching reads no position), and the
    matching rows index *rows*.  They come in ascending order.  *gates*
    is :func:`match_gates` of the two whole sets, for a caller that
    selects many rows of one set; it is computed here when not given.
    """
    if not (len(set_x) if rows is None else len(rows)) or not len(set_y):
        return [], [], []
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
    # Descriptors may have different lengths if callers mix configurations;
    # compare over the common prefix (normal use keeps lengths equal).
    min_len = min(set_x.descriptors.shape[1], set_y.descriptors.shape[1])
    desc_x, norms_x = _leading_columns(set_x, min_len, rows)
    desc_y, norms_y = _leading_columns(set_y, min_len)
    # Pairwise Euclidean distances between descriptors.
    sq = norms_x[:, None] + norms_y[None, :] - 2.0 * desc_x @ desc_y.T
    distances = np.sqrt(np.maximum(sq, 0.0))

    if gates is None:
        gates = match_gates(set_x, set_y, config)
    gated = np.where(gates if rows is None else gates[rows], distances, np.inf)
    grid_rows = np.arange(gated.shape[0])
    best_j = gated.argmin(axis=1)
    best = gated[grid_rows, best_j]
    accepted = np.isfinite(best)
    if config.require_distinctive and gated.shape[1] > 1:
        # The runner-up is the row's second-smallest value (equal to the
        # best when the minimum repeats), as ``np.partition(row, 1)[1]``.
        gated[grid_rows, best_j] = np.inf
        second = np.minimum.reduce(gated, axis=1)
        # Accept only if the best match is clearly better than the
        # runner-up: best * tau_d <= second (always so when there is no
        # admissible runner-up, i.e. second is inf).
        accepted &= ~(best * config.distinctiveness_ratio > second)
    return (
        np.flatnonzero(accepted).tolist(),
        best_j[accepted].tolist(),
        best[accepted].tolist(),
    )


def _leading_columns(
    feature_set: FeatureSet, count: int, rows: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The first *count* descriptor columns, C-contiguous, and their row norms².

    The squared norms are those the set stacked once when no column is
    cut; a cut matrix gets its own, computed the same way.  With *rows*,
    only those rows.
    """
    descriptors, norms = feature_set.descriptors, feature_set.squared_norms
    if rows is not None:
        descriptors, norms = descriptors[rows], norms[rows]
    if descriptors.shape[1] == count:
        return descriptors, norms
    matrix = np.ascontiguousarray(descriptors[:, :count])
    return matrix, np.add.reduce(matrix * matrix, axis=1)
