"""Pairwise distance computation with per-pair cost accounting.

The experiments need, for every algorithm, both the pairwise distance
matrix over a data set and the cost of producing it — wall-clock seconds
split into matching and dynamic-programming time, plus the number of DTW
grid cells filled (a hardware-independent proxy for the same quantity).
:class:`PairwiseDistanceMatrix` packages those together.

Naming note: this class was historically called ``DistanceIndex``, a
name that collided conceptually with the disk-backed salient-feature
*search* index of :mod:`repro.indexing` (inverted postings, shards,
candidate generation) even though the two share nothing.  The canonical
search-index classes are re-exported from ``repro.indexing`` and the
top-level ``repro`` package; this class is :class:`PairwiseDistanceMatrix`
(the deprecated ``DistanceIndex`` alias has been removed — see the
migration table in the README).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.bands import ResolvedConstraint, resolve_constraint
from ..core.sdtw import SDTW, SDTWResult
from ..dtw.full import dtw
from ..exceptions import ValidationError


@dataclass
class PairwiseDistanceMatrix:
    """Pairwise distances plus the cost of computing them.

    Attributes
    ----------
    constraint:
        The constraint label the index was built with (``"full"`` for the
        optimal DTW).
    distances:
        Symmetric matrix of pairwise distances (diagonal is zero).
    matching_seconds:
        Total wall-clock time spent on feature matching and inconsistency
        pruning across all pairs (task (b) in the paper's breakdown).
    dp_seconds:
        Total wall-clock time spent filling DTW grids and backtracking
        (task (c)).
    extract_seconds:
        Total wall-clock time spent extracting salient features (the
        amortisable, one-time-per-series task (a)).
    cells_filled:
        Total number of DTW grid cells evaluated.
    total_cells:
        Total number of grid cells a full DTW would have evaluated.
    """

    constraint: str
    distances: np.ndarray
    matching_seconds: float = 0.0
    dp_seconds: float = 0.0
    extract_seconds: float = 0.0
    cells_filled: int = 0
    total_cells: int = 0

    @property
    def compute_seconds(self) -> float:
        """Per-comparison cost: matching + dynamic programming."""
        return self.matching_seconds + self.dp_seconds

    @property
    def cell_fraction(self) -> float:
        """Fraction of the full grid work that was actually performed."""
        if self.total_cells == 0:
            return 1.0
        return self.cells_filled / self.total_cells

    @property
    def num_series(self) -> int:
        """Number of series the index covers."""
        return int(self.distances.shape[0])


ProgressCallback = Callable[[int, int], None]

# One computed pair: (a, b, value, matching_s, dp_s, extract_s, cells, grid).
_PairRecord = Tuple[int, int, float, float, float, float, int, int]


def _compute_pair(
    engine: SDTW, constraint: ResolvedConstraint, symmetrize: bool,
    xa: np.ndarray, xb: np.ndarray, a: int, b: int,
) -> _PairRecord:
    grid = xa.size * xb.size
    if constraint.label == "full":
        start = time.perf_counter()
        result = dtw(xa, xb, engine.config.pointwise_distance, return_path=False)
        elapsed = time.perf_counter() - start
        return (a, b, result.distance, 0.0, elapsed, 0.0, result.cells_filled, grid)
    forward: SDTWResult = engine.distance(xa, xb, constraint)
    if symmetrize:
        backward: SDTWResult = engine.distance(xb, xa, constraint)
        return (
            a, b, (forward.distance + backward.distance) / 2.0,
            forward.matching_seconds + backward.matching_seconds,
            forward.dp_seconds + backward.dp_seconds,
            forward.extract_seconds + backward.extract_seconds,
            forward.cells_filled + backward.cells_filled,
            2 * grid,
        )
    return (
        a, b, forward.distance,
        forward.matching_seconds, forward.dp_seconds, forward.extract_seconds,
        forward.cells_filled, grid,
    )


def compute_distance_index(
    series: Sequence[np.ndarray],
    constraint: str = "full",
    engine: Optional[SDTW] = None,
    *,
    symmetrize: bool = True,
    progress: Optional[ProgressCallback] = None,
) -> PairwiseDistanceMatrix:
    """Compute the pairwise distance index of a collection under one constraint.

    Parameters
    ----------
    series:
        The value arrays of the collection.
    constraint:
        ``"full"`` or any sDTW constraint label (``"fc,fw"``, ``"ac,aw"``, …).
    engine:
        The :class:`SDTW` engine to use; a default-configured engine is
        created when omitted.  Passing a shared engine lets feature
        extraction be amortised across constraints, mirroring the paper's
        treatment of extraction as a one-time cost.
    symmetrize:
        Whether to average the (possibly asymmetric) constrained distances
        over the two orientations.  Full DTW is symmetric already and is
        computed once per unordered pair regardless.
    progress:
        Optional callback ``(done_pairs, total_pairs)`` for long runs.

    Returns
    -------
    PairwiseDistanceMatrix
    """
    arrays = [np.asarray(s, dtype=float) for s in series]
    count = len(arrays)
    if count < 2:
        raise ValidationError("need at least two series to build a distance index")
    if engine is None:
        engine = SDTW()

    resolved = resolve_constraint(constraint)
    pair_list = [(a, b) for a in range(count) for b in range(a + 1, count)]
    total_pairs = len(pair_list)

    records: List[_PairRecord] = []
    for done, (a, b) in enumerate(pair_list, start=1):
        records.append(
            _compute_pair(engine, resolved, symmetrize, arrays[a], arrays[b], a, b)
        )
        if progress is not None:
            progress(done, total_pairs)

    distances = np.zeros((count, count))
    matching_seconds = 0.0
    dp_seconds = 0.0
    extract_seconds = 0.0
    cells_filled = 0
    total_cells = 0
    for a, b, value, match_s, dp_s, extract_s, cells, grid in records:
        distances[a, b] = distances[b, a] = value
        matching_seconds += match_s
        dp_seconds += dp_s
        extract_seconds += extract_s
        cells_filled += cells
        total_cells += grid

    return PairwiseDistanceMatrix(
        constraint="full" if resolved.label == "full" else constraint,
        distances=distances,
        matching_seconds=matching_seconds,
        dp_seconds=dp_seconds,
        extract_seconds=extract_seconds,
        cells_filled=cells_filled,
        total_cells=total_cells,
    )


