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
    ``length`` samples of the series).  This is :func:`stack_descriptors`
    with each keypoint's gradient as one row of the gradient stack.

    Returns
    -------
    numpy.ndarray
        ``(len(positions), config.num_bins)`` matrix, one descriptor per
        row.
    """
    stack = np.zeros((len(gradients), length))
    for row, gradient in zip(stack, gradients):
        row[:] = np.asarray(gradient, dtype=float)[:length]
    return stack_descriptors(positions, sigmas, stack, range(len(gradients)), config)


def stack_descriptors(
    positions: Sequence[float],
    sigmas: Sequence[float],
    gradients: np.ndarray,
    rows: Sequence[int],
    config: DescriptorConfig,
) -> np.ndarray:
    """Descriptors of many keypoints over a stack of gradient rows.

    Keypoint ``k`` at ``positions[k]`` with scale ``sigmas[k]`` reads row
    ``rows[k]`` of the ``(count, length)`` *gradients* stack: the centred
    gradient of its series smoothed at that σ.  It samples the row within
    :func:`descriptor_window_radius` of its centre (clipped to the
    series), and each sample's gradient magnitude, weighted by a Gaussian
    centred on the keypoint, is added to the increasing or decreasing bin
    of its temporal cell.

    Every sample of every keypoint is handled in one set of array
    operations, and each row equals the per-sample loop it replaces bit
    for bit, because each value goes through the same float operations in
    the same order:

    * the radius, cell width and weight denominator are computed once
      per distinct σ with Python floats, as the loop did;
    * a sample's squared offset from an integral position is an integer
      below 2**53, so ``offset * offset`` is exact and equals Python's
      ``offset ** 2`` (libm ``pow``, whose error stays under one ulp).
      Offsets from an off-grid position keep ``**`` on Python floats:
      there numpy's ``x * x`` differs from ``pow`` in the last bit for
      some offsets.  An array ``np.exp`` equals a scalar one;
    * ``np.bincount`` adds repeated bins in index order, so each bin sums
      its samples in the loop's order;
    * each row's L2 norm is the square root of the row's own BLAS dot,
      as ``np.linalg.norm(row)`` computes it (:func:`_row_norms`).

    Returns
    -------
    numpy.ndarray
        ``(len(positions), config.num_bins)`` matrix, one descriptor per
        row.
    """
    num_cells = config.num_cells
    bins_per_row = num_cells * 2
    positions = np.asarray(positions, dtype=float)
    count = positions.size
    if count == 0:
        return np.zeros((0, bins_per_row))
    length = gradients.shape[1]
    # The weighting scalars once per distinct σ.
    sigma_values = np.asarray(sigmas, dtype=float)
    distinct = np.sort(np.asarray(list(set(sigma_values.tolist()))))
    radius_of, width_of, denominator_of = [], [], []
    for sigma in distinct.tolist():
        radius = descriptor_window_radius(sigma, config)
        radius_of.append(radius)
        width_of.append(2.0 * radius / num_cells)
        weight_sigma = config.gaussian_weight_factor * radius
        denominator_of.append(2.0 * weight_sigma ** 2)
    which = np.searchsorted(distinct, sigma_values)
    radii = np.asarray(radius_of)[which]
    centers = np.rint(positions).astype(np.intp)
    starts = np.maximum(0, centers - radii)
    sizes = np.maximum(0, np.minimum(length - 1, centers + radii) - starts + 1)
    keypoint = np.repeat(np.arange(count), sizes)
    first = np.cumsum(sizes) - sizes
    samples = np.arange(keypoint.size) - first[keypoint] + starts[keypoint]
    grads = gradients.ravel()[np.asarray(rows, dtype=np.intp)[keypoint] * length + samples]
    offsets = samples - positions[keypoint]
    squares = offsets * offsets
    off_grid = (positions != np.floor(positions))[keypoint]
    if off_grid.any():
        squares[off_grid] = [offset ** 2 for offset in offsets[off_grid].tolist()]
    weights = np.exp(-squares / np.asarray(denominator_of)[which][keypoint])
    window_starts = positions - radii
    cells = (
        (samples - window_starts[keypoint]) / np.asarray(width_of)[which][keypoint]
    ).astype(int)
    cells = np.minimum(np.maximum(cells, 0), num_cells - 1)
    rising = grads >= 0
    bins = keypoint * bins_per_row + cells * 2 + np.where(rising, 0, 1)
    descriptors = np.bincount(
        bins, weights * np.where(rising, grads, -grads), minlength=count * bins_per_row
    ).reshape(count, bins_per_row)
    if config.normalize:
        descriptors = _normalize_rows(descriptors, config.clip_value)
    return descriptors


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """L2 norm of each row, exactly as ``np.linalg.norm(row)`` computes it:
    the square root of the row's BLAS dot with itself.  A stacked
    ``(1, n) @ (n, 1)`` matmul makes that one dot call per row;
    ``norm(..., axis=1)`` and ``einsum`` sum in other orders and differ
    in the last bit for many rows."""
    matrix = np.ascontiguousarray(matrix)
    return np.sqrt(np.matmul(matrix[:, np.newaxis, :], matrix[:, :, np.newaxis])[:, 0, 0])


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
