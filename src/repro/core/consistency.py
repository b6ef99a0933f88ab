"""Inconsistency pruning of matched salient-feature pairs.

Implements Section 3.2.2 of the paper.  Matched pairs may cross each other
in time (implying that the order of temporal features differs between the
two series), which contradicts the assumption that warping stretches time
but preserves feature order.  Pairs are therefore scored and committed
greedily, best first; a pair is kept only if inserting its scope boundaries
into the per-series boundary orderings leaves the start and end boundaries
at the *same rank* in both series (with the tie exception the paper notes).

Scores per pair ⟨f_i, f_j⟩:

* alignment score
  ``μ_align = ((scope(f_i) + scope(f_j)) / 2) / (1 + |center(f_i) − center(f_j)|)``
  — prefer large features whose centres are close in time;
* similarity score
  ``μ_sim = (μ_desc / μ_desc,min) × (1 − Δ_amp)``
  — prefer pairs with similar descriptors and similar average amplitudes;
* combined score: the F-measure (harmonic mean) of the two scores after
  normalising each by its maximum over all candidate pairs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .config import MatchingConfig
from .matching import MatchedPair


@dataclass(frozen=True)
class ScoredPair:
    """A matched pair together with its alignment/similarity/combined scores."""

    pair: MatchedPair
    alignment_score: float
    similarity_score: float
    combined_score: float


@dataclass(frozen=True)
class ConsistentAlignment:
    """The outcome of inconsistency pruning.

    Attributes
    ----------
    pairs:
        The retained (temporally consistent) matched pairs, ordered by the
        position of the first series' feature.
    scored_pairs:
        All candidate pairs with their scores, in the order they were
        considered (descending combined score) — useful for diagnostics
        and for the ablation benchmarks.
    boundaries_x, boundaries_y:
        The committed scope boundaries for each series, sorted in time.
        Boundary ``k`` of the first series corresponds to boundary ``k`` of
        the second series.
    """

    pairs: Tuple[MatchedPair, ...]
    scored_pairs: Tuple[ScoredPair, ...]
    boundaries_x: Tuple[float, ...]
    boundaries_y: Tuple[float, ...]

    @property
    def num_pairs(self) -> int:
        """Number of retained pairs."""
        return len(self.pairs)


def amplitude_differences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Δ_amp of each pair of mean scope amplitudes *a*, *b*.

    Expressed as a fraction of the larger magnitude, clipped to [0, 1], so
    ``1 − Δ_amp`` stays a usable multiplicative factor; 0 when both are 0.
    """
    larger = np.maximum(np.abs(a), np.abs(b))
    gap = np.abs(a - b)
    ratio = np.divide(gap, larger, out=np.zeros_like(gap), where=larger != 0)
    return np.minimum(1.0, ratio, out=ratio)


def amplitude_percentage_difference(pair: MatchedPair) -> float:
    """Δ_amp of one matched pair (see :func:`amplitude_differences`)."""
    return float(amplitude_differences(
        np.array([pair.feature_x.mean_amplitude]),
        np.array([pair.feature_y.mean_amplitude]),
    )[0])


def combined_scores(
    distances: np.ndarray,
    scope_lengths_x: np.ndarray,
    scope_lengths_y: np.ndarray,
    center_offsets: np.ndarray,
    amplitudes_x: np.ndarray,
    amplitudes_y: np.ndarray,
    groups: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """μ_align, μ_sim and the combined score of matched pairs.

    The arrays hold one entry per pair: descriptor distance, the two scope
    lengths, the distance between the two centres and the two mean scope
    amplitudes.  Pairs come in groups, one per alignment, each starting at
    an index of *groups* (ascending, no group empty); the similarity floor
    and the two normalising maxima are taken within a group.  Every value
    is computed with the float operations of the per-pair formulas, so
    one alignment scored alone or with others gets the same bits.
    """
    # Index that spreads one value per group over the group's pairs; one
    # group's (1,)-shaped values broadcast as they are.
    group = (
        np.repeat(np.arange(groups.size), np.diff(np.append(groups, distances.size)))
        if groups.size > 1 else Ellipsis
    )
    similarity = 1.0 / (1.0 + distances)
    floor = np.minimum.reduceat(similarity, groups)[group]
    align = (scope_lengths_x + scope_lengths_y) / 2.0 / (1.0 + center_offsets)
    # utils.stats.safe_divide's rule: a near-zero floor divides to 1.
    sim = np.divide(
        similarity, floor, out=np.ones_like(similarity),
        where=np.abs(floor) >= 1e-15,
    )
    sim *= 1.0 - amplitude_differences(amplitudes_x, amplitudes_y)
    top_align = np.maximum.reduceat(align, groups)
    top_sim = np.maximum.reduceat(sim, groups)
    ns_align = align / np.where(top_align > 0, top_align, 1.0)[group]
    ns_sim = sim / np.where(top_sim > 0, top_sim, 1.0)[group]
    total = ns_align + ns_sim
    combined = np.divide(
        2.0 * ns_align * ns_sim, total, out=np.zeros_like(total), where=total != 0
    )
    return align, sim, combined


def score_pairs(pairs: Sequence[MatchedPair]) -> List[ScoredPair]:
    """Compute μ_align, μ_sim and the combined F-measure score for all pairs."""
    if not pairs:
        return []
    columns = np.array([
        (
            pair.descriptor_distance,
            pair.feature_x.scope_length,
            pair.feature_y.scope_length,
            pair.center_offset,
            pair.feature_x.mean_amplitude,
            pair.feature_y.mean_amplitude,
        )
        for pair in pairs
    ], dtype=float).T
    align, sim, combined = combined_scores(*columns, np.zeros(1, dtype=np.intp))
    return [
        ScoredPair(
            pair=pair,
            alignment_score=a,
            similarity_score=s,
            combined_score=c,
        )
        for pair, a, s, c in zip(pairs, align.tolist(), sim.tolist(), combined.tolist())
    ]


ScopeBounds = Tuple[float, float, float, float]


def commit_consistent(
    bounds: Iterable[ScopeBounds],
) -> Tuple[List[int], List[float], List[float]]:
    """Commit pairs' scope bounds greedily, keeping only consistent ones.

    *bounds* holds each pair's ``(start_x, end_x, start_y, end_y)`` in
    commit order (best first).  A pair is kept only if both starts and
    both ends can be inserted at matching ranks of the two committed,
    sorted boundary lists (no crossings), its insertion treated
    atomically; as the paper notes, exact ties on committed boundary
    values are also accepted (the "special cases" exception), because an
    identical time value cannot introduce a crossing.

    Returns the indices of the kept pairs, in commit order, and the two
    sorted boundary lists; boundary ``k`` of the first series corresponds
    to boundary ``k`` of the second.
    """
    values_x: List[float] = []
    values_y: List[float] = []
    kept: List[int] = []
    for index, (st_x, end_x, st_y, end_y) in enumerate(bounds):
        # Check the start boundary, then the end boundary given the start
        # has (virtually) been inserted.  Because both starts are inserted
        # before both ends and st <= end, checking the two boundaries
        # independently against the committed orders is equivalent to the
        # paper's sequential insertion attempt.
        rank_x = bisect_left(values_x, st_x)
        rank_y = bisect_left(values_y, st_y)
        if rank_x != rank_y and not (
            _holds(values_x, rank_x, st_x) and _holds(values_y, rank_y, st_y)
        ):
            continue
        rank_x = bisect_left(values_x, end_x)
        rank_y = bisect_left(values_y, end_y)
        tie = _holds(values_x, rank_x, end_x) and _holds(values_y, rank_y, end_y)
        if rank_x != rank_y and not tie:
            continue
        # Additionally require that the start/end of this pair do not
        # straddle an existing committed boundary asymmetrically: the rank
        # of the end (after inserting the start) must also match.
        if rank_x + (st_x <= end_x) != rank_y + (st_y <= end_y) and not tie:
            continue
        insort(values_x, st_x)
        insort(values_x, end_x)
        insort(values_y, st_y)
        insort(values_y, end_y)
        kept.append(index)
    return kept, values_x, values_y


def _holds(values: List[float], rank: int, value: float) -> bool:
    """True if *value* is already committed (at its insertion *rank*)."""
    return rank < len(values) and values[rank] == value


def all_boundaries(bounds: Sequence[ScopeBounds]) -> Tuple[List[float], List[float]]:
    """Both series' sorted scope boundaries of every pair (no pruning)."""
    return (
        sorted(b for st_x, end_x, _, _ in bounds for b in (st_x, end_x)),
        sorted(b for _, _, st_y, end_y in bounds for b in (st_y, end_y)),
    )


def prune_inconsistent_pairs(
    pairs: Sequence[MatchedPair],
    config: Optional[MatchingConfig] = None,
) -> ConsistentAlignment:
    """Remove temporally inconsistent matched pairs.

    Pairs are committed greedily in descending order of their combined
    score (:func:`commit_consistent`).

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
    scored = score_pairs(pairs)
    scored.sort(key=lambda sp: sp.combined_score, reverse=True)
    if config.prune_inconsistencies:
        rows, bx, by = commit_consistent(_scope_bounds(sp.pair) for sp in scored)
        kept = [scored[row].pair for row in rows]
    else:
        kept = [sp.pair for sp in scored]
    kept.sort(key=lambda p: p.feature_x.position)
    if not config.prune_inconsistencies:
        bx, by = all_boundaries([_scope_bounds(pair) for pair in kept])
    return ConsistentAlignment(
        pairs=tuple(kept),
        scored_pairs=tuple(scored),
        boundaries_x=tuple(bx),
        boundaries_y=tuple(by),
    )


def _scope_bounds(pair: MatchedPair) -> ScopeBounds:
    return (
        pair.feature_x.scope_start, pair.feature_x.scope_end,
        pair.feature_y.scope_start, pair.feature_y.scope_end,
    )
