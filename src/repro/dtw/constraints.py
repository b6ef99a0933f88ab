"""Classic global DTW constraints: Sakoe–Chiba band and Itakura parallelogram.

These are the "fixed core & fixed width" style baselines of the paper
(Figure 2(b) and 2(c)).  Both are expressed as per-row windows compatible
with :func:`repro.dtw.banded.banded_dtw`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .._validation import check_int_at_least, check_positive
from ..exceptions import ValidationError
from .banded import validate_band


def full_band(n: int, m: int) -> np.ndarray:
    """The unconstrained band covering the whole grid (every cell allowed)."""
    n = check_int_at_least(n, 1, "n")
    m = check_int_at_least(m, 1, "m")
    band = np.zeros((n, 2), dtype=int)
    band[:, 1] = m - 1
    return band


def sakoe_chiba_band(n: int, m: int, radius: Union[int, float]) -> np.ndarray:
    """Sakoe–Chiba band of the given radius around the (resampled) diagonal.

    Parameters
    ----------
    n, m:
        Lengths of the two series.
    radius:
        If an ``int``, the half-width of the band measured in grid cells.
        If a ``float`` in (0, 1], the half-width as a fraction of ``m``
        (the paper's "w%" parameterisation: each point of the first series
        is compared to roughly ``w%`` of the points of the second).

    Returns
    -------
    numpy.ndarray
        Band of shape ``(n, 2)``.
    """
    n = check_int_at_least(n, 1, "n")
    m = check_int_at_least(m, 1, "m")
    if isinstance(radius, float) and 0 < radius <= 1:
        half = _half_width(m, radius)
    else:
        half = int(radius)
        if half < 0:
            raise ValidationError(f"radius must be non-negative, got {radius}")
    if n == 1:
        return np.array([[0, m - 1]], dtype=int)
    # Project every row onto the diagonal of the (possibly rectangular) grid.
    center = np.arange(n) * (m - 1) / (n - 1)
    band = np.empty((n, 2), dtype=int)
    band[:, 0] = np.maximum(np.floor(center - half), 0)
    band[:, 1] = np.minimum(np.ceil(center + half), m - 1)
    return validate_band(band, n, m, repair=True)


def sakoe_chiba_band_fraction(n: int, m: int, width_fraction: float) -> np.ndarray:
    """Sakoe–Chiba band where each point sees ``width_fraction`` of the other series.

    This matches the paper's parameterisation (w = 6%, 10%, 20%): for each
    point ``x_i`` the window covers about ``width_fraction * m`` columns.
    """
    width_fraction = check_positive(width_fraction, "width_fraction")
    if width_fraction > 1:
        raise ValidationError("width_fraction must be <= 1")
    return sakoe_chiba_band(n, m, _half_width(m, width_fraction))


def sakoe_chiba_envelope_radius(m: int, width_fraction: float) -> int:
    """LB_Keogh envelope radius paired with :func:`sakoe_chiba_band_fraction`.

    One more sample than the band's half-width, so the floor/ceil rounding
    of the band's rows can never put a band cell outside the envelope:
    LB_Keogh over a length-``m`` series' envelope of this radius
    lower-bounds the DTW under ``sakoe_chiba_band_fraction(m, m,
    width_fraction)``.
    """
    return _half_width(m, width_fraction) + 1


def _half_width(m: int, width_fraction: float) -> int:
    """Half-width in cells of a band covering ``width_fraction`` of *m* columns."""
    return max(1, int(round(width_fraction * m / 2.0)))


def itakura_band(n: int, m: int, max_slope: float = 2.0) -> np.ndarray:
    """Itakura parallelogram constraint expressed as a per-row window.

    The warp path is restricted so that its local slope stays between
    ``1 / max_slope`` and ``max_slope``; the feasible region is the
    intersection of the two cones anchored at the start and end corners.

    Parameters
    ----------
    n, m:
        Lengths of the two series.
    max_slope:
        Maximum admissible slope (> 1).  Larger values widen the band.
    """
    n = check_int_at_least(n, 1, "n")
    m = check_int_at_least(m, 1, "m")
    max_slope = check_positive(max_slope, "max_slope")
    if max_slope <= 1.0:
        raise ValidationError("max_slope must be greater than 1")
    min_slope = 1.0 / max_slope

    band = np.zeros((n, 2), dtype=int)
    if n == 1:
        band[0] = (0, m - 1)
        return band
    scale = (m - 1) / (n - 1) if n > 1 else 1.0
    for i in range(n):
        # Cone from the start corner (0, 0).
        lo_start = min_slope * scale * i
        hi_start = max_slope * scale * i
        # Cone from the end corner (n-1, m-1), walking backwards.
        remaining = (n - 1) - i
        lo_end = (m - 1) - max_slope * scale * remaining
        hi_end = (m - 1) - min_slope * scale * remaining
        lo = max(lo_start, lo_end)
        hi = min(hi_start, hi_end)
        if lo > hi:
            mid = (lo + hi) / 2.0
            lo = hi = mid
        band[i] = (int(np.floor(lo)), int(np.ceil(hi)))
    band[:, 0] = np.clip(band[:, 0], 0, m - 1)
    band[:, 1] = np.clip(band[:, 1], 0, m - 1)
    return validate_band(band, n, m, repair=True)
