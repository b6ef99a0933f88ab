"""Dynamic time warping substrate.

This subpackage contains the DTW machinery that the sDTW algorithms in
:mod:`repro.core` build on:

* :mod:`repro.dtw.distances` — pointwise element distances.
* :mod:`repro.dtw.path` — warp-path representation and validation.
* :mod:`repro.dtw.full` — the unconstrained O(NM) dynamic program.
* :mod:`repro.dtw.banded` — the dynamic program restricted to an arbitrary
  per-row window (the building block every constraint family shares).
* :mod:`repro.dtw.constraints` — classic global constraints
  (Sakoe–Chiba band, Itakura parallelogram).
* :mod:`repro.dtw.lower_bounds` — LB_Kim / LB_Keogh / LB_Yi lower bounds
  and the band-envelope bound of a per-row window band.
* :mod:`repro.dtw.fastdtw` — the multi-resolution FastDTW approximation
  (Salvador & Chan), included as a related-work baseline.
"""

from .banded import BandedDTWResult, banded_dtw, dtw_with_band
from .constraints import itakura_band, sakoe_chiba_band, full_band
from .distances import (
    absolute_distance,
    get_pointwise_distance,
    pointwise_cost_matrix,
    squared_distance,
)
from .fastdtw import fastdtw
from .full import DTWResult, dtw, dtw_distance, dtw_distance_matrix
from .lower_bounds import lb_keogh, lb_kim, lb_yi, keogh_envelope
from .path import WarpPath, is_valid_warp_path, path_cost

__all__ = [
    "BandedDTWResult",
    "DTWResult",
    "WarpPath",
    "absolute_distance",
    "banded_dtw",
    "dtw",
    "dtw_distance",
    "dtw_distance_matrix",
    "dtw_with_band",
    "fastdtw",
    "full_band",
    "get_pointwise_distance",
    "is_valid_warp_path",
    "itakura_band",
    "keogh_envelope",
    "lb_keogh",
    "lb_kim",
    "lb_yi",
    "path_cost",
    "pointwise_cost_matrix",
    "sakoe_chiba_band",
    "squared_distance",
]
