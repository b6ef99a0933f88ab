"""Locally relevant constraint bands (Section 3.3 of the paper).

Four constraint families are provided, all expressed as per-row windows
compatible with :func:`repro.dtw.banded.banded_dtw`:

* ``fc,fw`` — fixed core & fixed width: the Sakoe–Chiba band (baseline).
* ``fc,aw`` — fixed core & adaptive width: diagonal core, per-point width
  taken from the interval of the second series the candidate point falls
  into (with a lower bound, paper default 20%).
* ``ac,fw`` — adaptive core & fixed width: the core follows the salient
  alignment implied by corresponding intervals; width is fixed.
* ``ac,aw`` / ``ac2,aw`` — adaptive core & adaptive width; the ``ac2``
  refinement averages the widths of the previous/current/next intervals
  (more generally, ±r neighbours).

The adaptive core maps each point x_i to a candidate y_j by linear
interpolation within its corresponding interval pair; empty target
intervals map every source point to the interval's single boundary point,
and empty source intervals would leave gaps which the band validator
bridges (the paper's gap-bridging rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..dtw.banded import union_bands, validate_band, transpose_band
from ..dtw.constraints import sakoe_chiba_band_fraction
from ..exceptions import ConfigurationError, ValidationError
from .config import SDTWConfig
from .intervals import IntervalPartition


@dataclass(frozen=True)
class ConstraintSpec:
    """A parsed constraint specification.

    Attributes
    ----------
    core:
        ``"fixed"`` or ``"adaptive"``.
    width:
        ``"fixed"`` or ``"adaptive"``.
    neighbor_radius:
        Interval-averaging radius for the adaptive width (0 = use only the
        local interval, 1 = the paper's ``ac2`` variant).
    """

    core: str
    width: str
    neighbor_radius: int = 0

    def __post_init__(self) -> None:
        if self.core not in ("fixed", "adaptive"):
            raise ConfigurationError(f"unknown core type {self.core!r}")
        if self.width not in ("fixed", "adaptive"):
            raise ConfigurationError(f"unknown width type {self.width!r}")
        if self.neighbor_radius < 0:
            raise ConfigurationError("neighbor_radius must be >= 0")

    @property
    def label(self) -> str:
        """Canonical short label, e.g. ``"ac,aw"`` or ``"ac2,aw"``."""
        core = "ac" if self.core == "adaptive" else "fc"
        width = "aw" if self.width == "adaptive" else "fw"
        if self.core == "adaptive" and self.width == "adaptive" and self.neighbor_radius > 0:
            core = f"ac{self.neighbor_radius + 1}"
        return f"{core},{width}"


_SPEC_ALIASES = {
    "fc,fw": ConstraintSpec("fixed", "fixed"),
    "fcfw": ConstraintSpec("fixed", "fixed"),
    "sakoe": ConstraintSpec("fixed", "fixed"),
    "sakoe-chiba": ConstraintSpec("fixed", "fixed"),
    "fc,aw": ConstraintSpec("fixed", "adaptive"),
    "fcaw": ConstraintSpec("fixed", "adaptive"),
    "ac,fw": ConstraintSpec("adaptive", "fixed"),
    "acfw": ConstraintSpec("adaptive", "fixed"),
    "ac,aw": ConstraintSpec("adaptive", "adaptive", 0),
    "acaw": ConstraintSpec("adaptive", "adaptive", 0),
    "ac2,aw": ConstraintSpec("adaptive", "adaptive", 1),
    "ac2aw": ConstraintSpec("adaptive", "adaptive", 1),
}


def parse_constraint_spec(spec: Union[str, ConstraintSpec]) -> ConstraintSpec:
    """Parse a constraint label (e.g. ``"ac,aw"``) into a :class:`ConstraintSpec`."""
    if isinstance(spec, ConstraintSpec):
        return spec
    key = str(spec).strip().lower().replace(" ", "")
    try:
        return _SPEC_ALIASES[key]
    except KeyError as exc:
        known = ", ".join(sorted(set(_SPEC_ALIASES)))
        raise ValidationError(
            f"unknown constraint spec {spec!r}; known specs: {known}"
        ) from exc


def _candidate_points_fixed_core(n: int, m: int) -> np.ndarray:
    """Diagonal candidate points: j = i scaled onto the second series."""
    if n == 1:
        return np.zeros(n, dtype=float)
    return np.arange(n, dtype=float) * (m - 1) / (n - 1)


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

    Consecutive intervals share their end points; a shared point takes
    the later interval's mapping.  Since the intervals of a partition are
    consecutive and cover ``[0, n - 1]``, interval ``k`` maps the points
    from its start up to the next interval's start, so one ``np.repeat``
    of the per-interval terms lays them out for all points at once.  Each
    mapped value is computed with the same float operations, in the same
    order, as the per-point formula, so the result is exact.  The two
    empty cases need no branch: an empty X interval maps only its own
    start (fraction 0), and an empty Y interval has ``y_len`` 0, so
    ``st(Y,E) + fraction * y_len`` is exactly ``st(Y,E)`` in both.
    Endpoints are forced onto the grid corners so that a warp path always
    exists.
    """
    # One row per interval: (start_x, x_len or 1, start_y, y_len),
    # repeated over the points the interval maps.
    rows = [
        (ix.start, (ix.end - ix.start) or 1, iy.start, iy.end - iy.start)
        for ix, iy in zip(partition.intervals_x, partition.intervals_y)
    ]
    starts = [row[0] for row in rows] + [n]
    owned = [later - start for start, later in zip(starts, starts[1:])]
    start_x, divisor, start_y, y_len = np.repeat(rows, owned, axis=0).T
    candidates = start_y + (np.arange(n) - start_x) / divisor * y_len
    candidates[0] = 0.0
    candidates[-1] = m - 1
    return np.clip(candidates, 0, m - 1)


def _interval_widths(partition: IntervalPartition, neighbor_radius: int) -> np.ndarray:
    """Width (sample count) of each interval of the second series.

    With ``neighbor_radius > 0`` each width is the mean over the intervals
    within ±neighbor_radius of it (the ``ac2`` refinement).
    """
    widths = np.asarray([iv.length for iv in partition.intervals_y], dtype=float)
    if neighbor_radius <= 0:
        return widths
    return np.asarray([
        float(widths[max(0, index - neighbor_radius): index + neighbor_radius + 1].mean())
        for index in range(widths.size)
    ])


def build_constraint_band(
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
        # Each point takes the width of the Y interval its (rounded)
        # candidate falls into, clamped to the bounds.
        widths_y = _interval_widths(partition, parsed.neighbor_radius or 0)
        intervals = partition.interval_indices_for_y(
            np.rint(candidates).astype(int)
        )
        per_point_width = np.minimum(
            np.maximum(widths_y[intervals], lower_bound), upper_bound
        )
    elif parsed.width == "adaptive":
        # No partition information: fall back to the lower bound width.
        per_point_width = np.full(n, max(lower_bound, fixed_width))
    else:
        per_point_width = np.full(n, fixed_width)

    half = np.ceil(per_point_width / 2.0)
    band = np.empty((n, 2), dtype=int)
    band[:, 0] = np.floor(candidates - half)
    band[:, 1] = np.ceil(candidates + half)
    return validate_band(band, n, m, repair=True)


def build_symmetric_band(
    band_xy: np.ndarray,
    band_yx: np.ndarray,
    n: int,
    m: int,
) -> np.ndarray:
    """Combine an X-driven band and a Y-driven band into a symmetric band.

    The Y-driven band (built over the transposed grid) is transposed back
    and united with the X-driven band, as suggested in Section 3.3.3 for
    rendering the adaptive constraints symmetric.
    """
    transposed = transpose_band(band_yx, m, n)
    return validate_band(union_bands(band_xy, transposed), n, m, repair=True)
