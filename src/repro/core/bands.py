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

:func:`build_constraint_bands` bands a whole stack of partitions in one
array pass, and each partition may have its own second-series length
``m``: the alignment stage (:mod:`repro.core.alignment`) bands a query
against candidates of different lengths at once.  Every value goes
through the float operations of the one-partition formula, so each band
equals :func:`build_constraint_band` of its partition.

:func:`resolve_constraint` is the one place a constraint label becomes a
family: it takes these labels, their aliases, a :class:`ConstraintSpec`,
and the two global constraints ``full`` and ``itakura``.  The engine, the
stream matchers, the offline scans and :class:`~repro.core.sdtw.SDTW`
all read the family, the band of the shape-only families and the
LB_Keogh envelope radius from what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..dtw.banded import transpose_band, union_bands, validate_band, validate_bands
from ..dtw.constraints import (
    full_band,
    itakura_band,
    sakoe_chiba_band_fraction,
    sakoe_chiba_envelope_radius,
)
from ..exceptions import ConfigurationError, ValidationError
from .config import SDTWConfig
from .intervals import IntervalPartition, PartitionStack, locate_stacked


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


@dataclass(frozen=True)
class ResolvedConstraint:
    """A constraint label resolved to its family (:func:`resolve_constraint`).

    Attributes
    ----------
    label:
        Canonical label: ``"full"``, ``"itakura"`` or an sDTW label such
        as ``"fc,fw"`` or ``"ac2,aw"``.
    spec:
        The sDTW family, ``None`` for ``full`` and ``itakura``.
    aligns:
        Whether the family aligns salient features: an adaptive core or
        width, so each pair of series gets its own band.
    """

    label: str
    spec: Optional[ConstraintSpec]
    aligns: bool

    def band(
        self,
        n: int,
        m: int,
        config: SDTWConfig,
        itakura_max_slope: float = 2.0,
    ) -> Optional[np.ndarray]:
        """The band of an ``n x m`` grid when it depends on the shape only.

        ``full``, ``itakura`` and ``fc,fw`` (the Sakoe–Chiba band of
        ``config.width_fraction``) have one; a family that aligns features
        has none and gets ``None``.
        """
        if self.aligns:
            return None
        if self.label == "full":
            return full_band(n, m)
        if self.label == "itakura":
            return itakura_band(n, m, itakura_max_slope)
        return sakoe_chiba_band_fraction(n, m, config.width_fraction)

    def envelope_radius(self, m: int, config: SDTWConfig) -> Optional[int]:
        """LB_Keogh envelope radius admissible against :meth:`band`.

        Only ``fc,fw`` has one (:func:`~repro.dtw.constraints.sakoe_chiba_envelope_radius`
        over a length-*m* series); every other family gets ``None`` and is
        bounded by the global envelope, which holds for the full DTW.
        """
        if self.label != "fc,fw":
            return None
        return sakoe_chiba_envelope_radius(m, config.width_fraction)


def resolve_constraint(
    constraint: Union[str, ConstraintSpec, ResolvedConstraint],
) -> ResolvedConstraint:
    """Resolve a constraint label, an alias or a :class:`ConstraintSpec`.

    Labels are matched without case and spaces; ``"full"`` and
    ``"itakura"`` are accepted beside the sDTW labels, and
    ``"sakoe-chiba"`` is ``"fc,fw"``.  A :class:`ResolvedConstraint`
    passes through.  Unknown labels raise
    :class:`~repro.exceptions.ValidationError`.
    """
    if isinstance(constraint, ResolvedConstraint):
        return constraint
    if isinstance(constraint, ConstraintSpec):
        return ResolvedConstraint(
            constraint.label, constraint,
            constraint.core == "adaptive" or constraint.width == "adaptive",
        )
    key = str(constraint).strip().lower().replace(" ", "")
    try:
        return _RESOLVED[key]
    except KeyError:
        known = ", ".join(sorted(_RESOLVED))
        raise ValidationError(
            f"unknown constraint {constraint!r}; known constraints: {known}"
        ) from None


_RESOLVED = {key: resolve_constraint(spec) for key, spec in _SPEC_ALIASES.items()}
_RESOLVED["full"] = ResolvedConstraint("full", None, False)
_RESOLVED["itakura"] = ResolvedConstraint("itakura", None, False)


def parse_constraint_spec(spec: Union[str, ConstraintSpec]) -> ConstraintSpec:
    """The sDTW family of a constraint label (e.g. ``"ac,aw"``).

    Labels resolve through :func:`resolve_constraint`; ``full`` and
    ``itakura`` are not sDTW families and are rejected.
    """
    parsed = resolve_constraint(spec).spec
    if parsed is None:
        raise ValidationError(f"{spec!r} is not an sDTW constraint family")
    return parsed


def _candidate_points_fixed_core(n: int, m) -> np.ndarray:
    """Diagonal candidate points: j = i scaled onto the second series
    (one row per partition when *m* is a column of lengths)."""
    if n == 1:
        return np.zeros(n, dtype=float)
    return np.arange(n, dtype=float) * (m - 1) / (n - 1)


def _adaptive_cores(n: int, m, stack: PartitionStack) -> np.ndarray:
    """Candidate points from corresponding intervals (Section 3.3.2), for
    every partition of *stack*, one row each.

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
    of the per-interval terms lays them out for all points of all
    partitions at once.  Each mapped value is computed with the same
    float operations, in the same order, as the per-point formula, so the
    result is exact.  The two empty cases need no branch: an empty X
    interval maps no point (the next interval starts where it does), and
    an empty Y interval has ``y_len`` 0, so ``st(Y,E) + fraction * y_len``
    is exactly ``st(Y,E)``.  Endpoints are forced onto the grid corners so
    that a warp path always exists.
    """
    starts_x = stack.starts_x
    owned = np.empty_like(starts_x)
    owned[:-1] = starts_x[1:]
    owned[np.cumsum(stack.counts) - 1] = n
    owned -= starts_x
    x_len = stack.ends_x - starts_x
    start_x = np.repeat(starts_x, owned)
    divisor = np.repeat(np.where(x_len == 0, 1, x_len), owned)
    start_y = np.repeat(stack.starts_y, owned)
    y_len = np.repeat(stack.ends_y - stack.starts_y, owned)
    points = np.arange(start_x.size) % n
    candidates = (start_y + (points - start_x) / divisor * y_len).reshape(-1, n)
    candidates[:, 0] = 0.0
    candidates[:, -1:] = m - 1
    return np.clip(candidates, 0, m - 1)


def _interval_widths(stack: PartitionStack, neighbor_radius: int) -> np.ndarray:
    """Width (sample count) of each interval of the second series.

    With ``neighbor_radius > 0`` each width is the mean over the intervals
    of its partition within ±neighbor_radius of it (the ``ac2``
    refinement).  Widths are whole numbers, so the window sums from a
    running total are exact and each mean is the quotient ``np.mean``
    rounds.
    """
    widths = (stack.ends_y - stack.starts_y + 1).astype(float)
    if neighbor_radius <= 0:
        return widths
    heads = np.repeat(stack.firsts, stack.counts)
    tails = heads + np.repeat(stack.counts, stack.counts) - 1
    index = np.arange(widths.size)
    lo = np.maximum(heads, index - neighbor_radius)
    hi = np.minimum(tails, index + neighbor_radius)
    total = np.concatenate([[0.0], np.cumsum(widths)])
    return (total[hi + 1] - total[lo]) / (hi - lo + 1)


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
        ``"ac,aw"``, ``"ac2,aw"``, a :class:`ConstraintSpec` or anything
        else :func:`resolve_constraint` takes.  A shape-only family
        (``fc,fw``, ``full``, ``itakura`` at its default slope) gets its
        shape-only band.
    partition:
        Corresponding interval partition (required by the adaptive
        variants; when ``None`` or trivial those variants degrade to their
        fixed counterparts, which is the documented fallback when no
        salient features could be matched).
    config:
        sDTW configuration providing the fixed width fraction and the
        adaptive width bounds.

    Returns
    -------
    numpy.ndarray
        Validated band of shape ``(n, 2)``.
    """
    if partition is None:
        stack = PartitionStack(
            np.array([0]), np.array([n - 1]), np.array([0]), np.array([m - 1]),
            np.array([1]),
        )
    else:
        stack = partition.stack()
    return build_constraint_bands(n, m, spec, stack, config)[0]


def build_constraint_bands(
    n: int,
    m: Union[int, np.ndarray],
    spec: Union[str, ConstraintSpec],
    stack: PartitionStack,
    config: Optional[SDTWConfig] = None,
) -> np.ndarray:
    """:func:`build_constraint_band` for every partition of *stack* at once.

    *m* is the second series' length, shared by every partition or one
    per partition.  Returns the validated bands as one
    ``(partitions, n, 2)`` array; each band equals what
    :func:`build_constraint_band` builds from that partition alone, with
    its own ``m``: each value goes through the float operations of the
    one-partition formula.  A partition of one interval takes the fixed
    counterpart of the adaptive variant.
    """
    if config is None:
        config = SDTWConfig()
    resolved = resolve_constraint(spec)
    count = stack.counts.size
    per_partition = np.ndim(m) > 0

    # A shape-only band is every partition's band.
    if not resolved.aligns:
        if per_partition:
            return np.array(
                [resolved.band(n, int(c), config) for c in m], dtype=int
            ).reshape(count, n, 2)
        band = resolved.band(n, m, config)
        return np.repeat(band[None], count, axis=0)
    parsed = resolved.spec
    # Per-partition lengths as a column, so each broadcasts along its row.
    columns = np.asarray(m)[:, None] if per_partition else m

    have_partition = (stack.counts > 1)[:, None]
    some = bool(have_partition.any())

    # Candidate (core) points.
    fixed_core = np.broadcast_to(_candidate_points_fixed_core(n, columns), (count, n))
    if parsed.core == "adaptive" and some:
        candidates = _pick(
            have_partition, _adaptive_cores(n, columns, stack), fixed_core
        )
    else:
        candidates = fixed_core

    # Per-point widths.
    fixed_width = np.maximum(1.0, config.width_fraction * columns)
    lower_bound = np.maximum(1.0, config.adaptive_width_lower_bound * columns)
    upper_bound = (
        config.adaptive_width_upper_bound
        if config.adaptive_width_upper_bound is not None
        else 1.0
    ) * columns
    # No partition information: an adaptive width falls back to the lower
    # bound width.
    fallback_width = np.maximum(lower_bound, fixed_width)
    if parsed.width == "adaptive" and some:
        # Each point takes the width of the Y interval its (rounded)
        # candidate falls into, clamped to the bounds.
        widths_y = _interval_widths(stack, parsed.neighbor_radius or 0)
        intervals = locate_stacked(
            stack.starts_y, stack.ends_y, stack.counts,
            np.rint(candidates).astype(int),
        )
        per_point_width = _pick(
            have_partition,
            np.minimum(
                np.maximum(widths_y[stack.firsts[:, None] + intervals], lower_bound),
                upper_bound,
            ),
            fallback_width,
        )
    elif parsed.width == "adaptive":
        per_point_width = np.full((count, n), fallback_width)
    else:
        per_point_width = np.full((count, n), fixed_width)

    half = np.ceil(per_point_width / 2.0)
    bands = np.empty((count, n, 2), dtype=int)
    bands[..., 0] = np.floor(candidates - half)
    bands[..., 1] = np.ceil(candidates + half)
    return validate_bands(bands, n, m)


def _pick(have: np.ndarray, adaptive: np.ndarray, fallback) -> np.ndarray:
    """Rows of *adaptive* where *have*, of *fallback* elsewhere."""
    return adaptive if have.all() else np.where(have, adaptive, fallback)


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
