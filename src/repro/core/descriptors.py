"""Salient-feature descriptors for 1-D time series.

Implements Step 2 of the paper's feature extraction (Section 3.1.2): around
each keypoint, gradient magnitudes of the series smoothed at the keypoint's
scale are sampled over a window whose extent is proportional to σ, weighted
by a Gaussian centred on the keypoint, and aggregated into ``2a`` temporal
cells of 2 bins each (increasing vs. decreasing gradients — the only two
"orientations" that exist in one dimension).  The resulting vector of
length ``2a × 2 = num_bins`` is L2-normalised, clipped, and renormalised to
obtain (partial) invariance to amplitude differences.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .._validation import as_series, check_positive
from ..utils.preprocessing import gaussian_smooth
from .config import DescriptorConfig


def descriptor_window_radius(sigma: float, config: DescriptorConfig) -> int:
    """Half-width (in samples) of the region a descriptor covers.

    The window spans ``num_cells * samples_per_cell`` samples on each side
    of the keypoint, scaled by σ so that coarse-scale keypoints describe a
    proportionally larger temporal context — the property Figure 6 of the
    paper illustrates.
    """
    sigma = check_positive(sigma, "sigma")
    per_side = config.num_cells * config.samples_per_cell / 2.0
    return max(config.num_cells, int(round(per_side * max(sigma, 1.0))))


def compute_descriptor(
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
        Descriptor vector of length ``config.num_bins``; one row of
        :func:`compute_descriptors`.
    """
    if config is None:
        config = DescriptorConfig()
    values = as_series(series, "series")
    sigma = check_positive(sigma, "sigma")
    if smoothed is None:
        smoothed = gaussian_smooth(values, sigma)
    gradients = np.gradient(np.asarray(smoothed, dtype=float))
    return compute_descriptors(values.size, [position], [sigma], [gradients], config)[0]


def compute_descriptors(
    length: int,
    positions: Sequence[float],
    sigmas: Sequence[float],
    gradients: Sequence[np.ndarray],
    config: DescriptorConfig,
) -> np.ndarray:
    """Descriptors of many keypoints of one series, in one pass.

    Keypoint ``k`` at ``positions[k]`` with scale ``sigmas[k]`` samples
    ``gradients[k]``, the centred gradient (``np.gradient``) of the
    series smoothed at that σ, over the samples within
    :func:`descriptor_window_radius` of its centre (clipped to the
    ``length`` samples of the series).  Each sample's gradient magnitude,
    weighted by a Gaussian centred on the keypoint, is added to the
    increasing or decreasing bin of its temporal cell.  Keypoints of one σ
    should pass the same gradient array: callers compute it once per σ.

    Every sample of every keypoint is handled in one set of array
    operations, and each row equals the per-sample loop it replaces bit
    for bit, because each value goes through the same float operations in
    the same order:

    * the squares in the weight use Python's ``**`` on Python floats,
      which calls libm ``pow`` (numpy's ``x ** 2`` computes ``x * x`` and
      differs in the last bit for some offsets); an array ``np.exp``
      equals a scalar one;
    * ``np.add.at`` adds repeated bins in index order, so each bin sums
      its samples in the loop's order;
    * each row's L2 norm is the square root of the row's own 1-D BLAS
      dot, as ``np.linalg.norm(row)`` computes it; ``norm(..., axis=1)``
      sums in another order and differs in the last bit for many rows.

    Returns
    -------
    numpy.ndarray
        ``(len(positions), config.num_bins)`` matrix, one descriptor per
        row.
    """
    num_cells = config.num_cells
    count = len(positions)
    descriptors = np.zeros((count, num_cells * 2))
    if count == 0:
        return descriptors
    # Per keypoint: the sample range and the scalars of its weighting.
    starts, sizes, window_starts, cell_widths, denominators = [], [], [], [], []
    for position, sigma in zip(positions, sigmas):
        radius = descriptor_window_radius(sigma, config)
        center_index = int(round(position))
        lo = max(0, center_index - radius)
        hi = min(length - 1, center_index + radius)
        starts.append(lo)
        sizes.append(max(0, hi - lo + 1))
        window_starts.append(position - radius)
        cell_widths.append(2.0 * radius / num_cells)
        weight_sigma = config.gaussian_weight_factor * radius
        denominators.append(2.0 * weight_sigma ** 2)
    sizes_arr = np.asarray(sizes)
    rows = np.repeat(np.arange(count), sizes_arr)
    first = np.cumsum(sizes_arr) - sizes_arr
    samples = np.arange(rows.size) - first[rows] + np.asarray(starts)[rows]
    grads = np.concatenate([
        gradient[lo: lo + size]
        for gradient, lo, size in zip(gradients, starts, sizes)
    ])
    offsets = samples - np.asarray(positions, dtype=float)[rows]
    squares = np.asarray([offset ** 2 for offset in offsets.tolist()])
    weights = np.exp(-squares / np.asarray(denominators)[rows])
    cells = (
        (samples - np.asarray(window_starts)[rows]) / np.asarray(cell_widths)[rows]
    ).astype(int)
    cells = np.minimum(np.maximum(cells, 0), num_cells - 1)
    rising = grads >= 0
    bins = rows * (num_cells * 2) + cells * 2 + np.where(rising, 0, 1)
    np.add.at(descriptors.ravel(), bins, weights * np.where(rising, grads, -grads))
    if config.normalize:
        descriptors = _normalize_rows(descriptors, config.clip_value)
    return descriptors


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """L2 norm of each row, exactly as ``np.linalg.norm(row)`` computes it:
    the square root of the row's BLAS dot with itself."""
    return np.sqrt([row.dot(row) for row in matrix])


def _normalize_rows(descriptors: np.ndarray, clip_value: float) -> np.ndarray:
    """L2-normalise, clip, and renormalise each row (the SIFT illumination rule).

    A row whose norm is zero is left as it is, before or after clipping.
    """
    norms = _row_norms(descriptors)
    live = norms != 0
    out = descriptors.copy()
    out[live] = np.minimum(descriptors[live] / norms[live, None], clip_value)
    norms = _row_norms(out)
    live &= norms != 0
    out[live] = out[live] / norms[live, None]
    return out


def descriptor_matrix(features: Sequence, num_bins: int) -> np.ndarray:
    """Stack the descriptors of many salient features into one dense matrix.

    The batch export consumed by the indexing subsystem's codebook
    (:mod:`repro.indexing.codebook`): one row per feature, descriptors
    shorter than *num_bins* zero-padded and longer ones truncated, so
    features extracted under mixed configurations still produce a
    rectangular matrix.

    Parameters
    ----------
    features:
        Objects with a ``descriptor`` array attribute
        (:class:`repro.core.features.SalientFeature` instances).
    num_bins:
        Number of descriptor columns of the output.

    Returns
    -------
    numpy.ndarray
        ``(len(features), num_bins)`` float matrix (empty when no
        features are given).
    """
    num_bins = int(check_positive(num_bins, "num_bins"))
    matrix = np.zeros((len(features), num_bins))
    for row, feature in enumerate(features):
        descriptor = np.asarray(feature.descriptor, dtype=float)
        length = min(descriptor.size, num_bins)
        matrix[row, :length] = descriptor[:length]
    return matrix


def descriptor_distance(first: np.ndarray, second: np.ndarray) -> float:
    """Euclidean distance between two descriptors (Section 3.2.1)."""
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    length = min(a.size, b.size)
    return float(np.linalg.norm(a[:length] - b[:length]))
