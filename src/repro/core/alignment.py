"""The alignment stage: the adaptive bands of many pairs in one pass.

Section 3.4 splits each comparison into task (b), feature matching with
inconsistency pruning, and task (c), the banded DP.  For a constraint
family that aligns salient features, this module runs task (b) for many
pairs of series at once and returns their bands; each band equals
:meth:`repro.core.sdtw.SDTW.build_band` of its pair, byte for byte.

* :func:`align_candidates` aligns one query with each of many stored
  series: the distance engine's refinement stage, on every backend.
* :func:`build_alignment_bands` is the shared tail.  Given every pair's
  matched features, it scores them all at once, commits each pair's
  consistent matches on plain floats, and cuts, bands and validates
  every partition in one pass.  The stream's block band pass
  (:func:`repro.streaming.subsequence.build_stream_bands`) calls it
  after its own matching step.
* :func:`unite_reverse_band` adds one pair's reverse band when
  ``symmetric_band`` is on.  Reverse bands have one row per column of
  the forward grid, so pairs of different lengths get them one by one.

Every value goes through the float operations of the per-pair path
(:func:`~repro.core.matching.match_salient_features`,
:func:`~repro.core.consistency.prune_inconsistent_pairs`,
:func:`~repro.core.intervals.build_interval_partition`,
:func:`~repro.core.bands.build_constraint_band`), in the same order.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Union

import numpy as np

from .bands import (
    ConstraintSpec,
    ResolvedConstraint,
    build_constraint_band,
    build_constraint_bands,
    build_symmetric_band,
)
from .config import SDTWConfig
from .consistency import (
    all_boundaries,
    combined_scores,
    commit_consistent,
    prune_inconsistent_pairs,
)
from .features import FeatureSet, SalientFeature
from .intervals import boundary_cuts, build_interval_partition, stack_partitions
from .matching import match_decisions, match_salient_features

Spec = Union[str, ConstraintSpec, ResolvedConstraint]


class MatchedSides(NamedTuple):
    """One side of many matched pairs: each pair's feature of that series.

    Holds the scope bounds, centre and mean scope amplitude of the
    matched feature, pair after pair; pair scoring and committing read
    nothing else.
    """

    starts: np.ndarray
    ends: np.ndarray
    centers: np.ndarray
    amplitudes: np.ndarray

    @classmethod
    def of(cls, sets: Sequence[FeatureSet], rows: np.ndarray) -> "MatchedSides":
        """The features at *rows* of the concatenation of *sets*."""
        return cls(*(
            (getattr(sets[0], name) if len(sets) == 1
             else np.concatenate([getattr(s, name) for s in sets] or [np.zeros(0)]))[rows]
            for name in ("scope_starts", "scope_ends", "positions", "mean_amplitudes")
        ))


def build_alignment_bands(
    spec: Spec,
    sizes: Sequence[int],
    distances: np.ndarray,
    x: MatchedSides,
    y: MatchedSides,
    n: int,
    m: Union[int, np.ndarray],
    config: SDTWConfig,
) -> np.ndarray:
    """The validated bands of many alignments, as one ``(len(sizes), n, 2)`` array.

    Alignment ``w`` pairs a row series of length *n* with a column
    series of length *m* (shared, or ``m[w]``) through the next
    ``sizes[w]`` matched pairs: their descriptor distances, their row
    series' features *x* and their column series' features *y*, in the
    order :func:`~repro.core.matching.match_decisions` made them.

    1. Each alignment's pairs are put in match order (by the row
       feature's position, stable) and all pairs are scored together
       (:func:`~repro.core.consistency.combined_scores`, grouped by
       alignment).
    2. Each alignment commits its pairs, best combined score first and
       ties in match order, on plain floats
       (:func:`~repro.core.consistency.commit_consistent`), or keeps them
       all when ``prune_inconsistencies`` is off.
    3. The committed boundaries become cuts
       (:func:`~repro.core.intervals.boundary_cuts`), and every partition
       is banded and validated in one pass
       (:func:`~repro.core.bands.build_constraint_bands`).

    An alignment with no pairs gets the fixed counterpart of the family,
    as a trivial partition does.
    """
    sizes = list(sizes)
    cut_counts = [0] * len(sizes)
    committed_x: List[float] = []
    committed_y: List[float] = []
    if len(distances):
        group = np.repeat(np.arange(len(sizes)), sizes)
        order = np.lexsort((x.centers, group))
        counts = np.asarray(sizes)
        firsts = (np.cumsum(counts) - counts)[counts > 0]
        _, _, combined = combined_scores(
            np.asarray(distances, dtype=float)[order],
            (x.ends - x.starts)[order],
            (y.ends - y.starts)[order],
            np.abs(x.centers - y.centers)[order],
            x.amplitudes[order],
            y.amplitudes[order],
            firsts,
        )
        commit = order[np.lexsort((-combined, group[order]))]
        bounds = list(zip(
            x.starts[commit].tolist(), x.ends[commit].tolist(),
            y.starts[commit].tolist(), y.ends[commit].tolist(),
        ))
        first = 0
        for index, size in enumerate(sizes):
            if not size:
                continue
            pairs = bounds[first: first + size]
            first += size
            if config.matching.prune_inconsistencies:
                _, boundaries_x, boundaries_y = commit_consistent(pairs)
            else:
                boundaries_x, boundaries_y = all_boundaries(pairs)
            committed_x += boundaries_x
            committed_y += boundaries_y
            cut_counts[index] = len(boundaries_x)

    # Sorted boundaries give sorted cuts: rounding and clipping keep order.
    lengths_y = np.repeat(m, cut_counts) if np.ndim(m) else m
    stack = stack_partitions(
        boundary_cuts(np.asarray(committed_x, dtype=float), n),
        boundary_cuts(np.asarray(committed_y, dtype=float), lengths_y),
        cut_counts, n, m,
    )
    return build_constraint_bands(n, m, spec, stack, config)


def align_candidates(
    spec: Spec,
    query: FeatureSet,
    candidates: Sequence[FeatureSet],
    n: int,
    lengths: Sequence[int],
    config: SDTWConfig,
) -> np.ndarray:
    """The bands of a length-*n* query against each of many series.

    Candidate ``c`` has the features ``candidates[c]`` and length
    ``lengths[c]``; its band is row ``c`` of the returned
    ``(len(candidates), n, 2)`` array and equals
    ``SDTW.build_band(query, candidate)`` byte for byte, with
    ``symmetric_band`` on or off.  Each pair's match decisions come from
    one :func:`~repro.core.matching.match_decisions` call on exactly its
    two sets (a descriptor product over more rows would not be bit-equal
    to it); the rest is :func:`build_alignment_bands`.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    rows: List[int] = []
    columns: List[int] = []
    distances: List[float] = []
    sizes: List[int] = []
    for candidate in candidates:
        chosen, matched, found = match_decisions(query, candidate, config.matching)
        rows += chosen
        columns += matched
        distances += found
        sizes.append(len(chosen))
    counts = np.array([len(candidate) for candidate in candidates], dtype=np.intp)
    columns_array = np.asarray(columns, dtype=np.intp) + np.repeat(
        np.cumsum(counts) - counts, sizes
    )
    bands = build_alignment_bands(
        spec, sizes, np.asarray(distances, dtype=float),
        MatchedSides.of([query], np.asarray(rows, dtype=np.intp)),
        MatchedSides.of(candidates, columns_array),
        n, lengths, config,
    )
    if config.symmetric_band:
        for index, candidate in enumerate(candidates):
            bands[index] = unite_reverse_band(
                bands[index], spec, query, candidate, n, int(lengths[index]), config
            )
    return bands


def unite_reverse_band(
    band: np.ndarray,
    spec: Spec,
    features_x: Sequence[SalientFeature],
    features_y: Sequence[SalientFeature],
    n: int,
    m: int,
    config: SDTWConfig,
) -> np.ndarray:
    """*band* united with the band the second series drives (Section 3.3.3).

    The reverse band aligns *features_y* with *features_x* over the
    transposed ``m x n`` grid; :func:`~repro.core.bands.build_symmetric_band`
    transposes it back and unites the two (``symmetric_band``).
    """
    matches = match_salient_features(features_y, features_x, config.matching)
    consistent = prune_inconsistent_pairs(matches, config.matching)
    partition = build_interval_partition(consistent, m, n)
    reverse = build_constraint_band(m, n, spec, partition, config)
    return build_symmetric_band(band, reverse, n, m)
