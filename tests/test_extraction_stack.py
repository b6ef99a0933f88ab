"""The extraction pass over a stack of series against its single-series form.

A stream extractor extracts all the windows a block refreshes in one pass
over their stack (:func:`repro.core.features.extract_feature_sets`), and
``extract_salient_features`` is that pass on a stack of one.  Each stacked
step must give every row exactly what the row gives alone, and the steps
the pass rewrote must equal the code they replaced, bit for bit: the
smoothing's padding, the descriptors' squares, sums and norms, and the
scope means.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.core.descriptors import (
    compute_descriptors,
    descriptor_window_radius,
    stack_descriptors,
)
from repro.core.features import (
    FeatureSet,
    extract_feature_sets,
    extract_salient_features,
    keypoint_feature,
    scope_means,
)
from repro.core.keypoints import detect_keypoints
from repro.core.scale_space import build_scale_space
from repro.utils.preprocessing import gaussian_kernel, gaussian_smooth, gaussian_smooth_rows

STACK = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def make_stack(count: int, length: int, seed: int, quantize: bool = False) -> np.ndarray:
    """*count* overlapping windows of one seeded wave, as a stream block
    stacks them; quantized values have plateaus and exact ties."""
    rng = np.random.default_rng(seed)
    total = length + 3 * (count - 1)
    t = np.linspace(0.0, rng.uniform(2.0, 12.0), total)
    values = (
        np.sin(rng.uniform(0.5, 3.0) * t)
        + 0.5 * np.sin(3.7 * t + rng.uniform(0.0, 6.0))
        + np.cumsum(rng.normal(0.0, 0.1, total))
    )
    if quantize:
        values = np.round(values, 1)
    return np.stack([values[3 * k: 3 * k + length] for k in range(count)])


def reference_gaussian_smooth(values: np.ndarray, sigma: float) -> np.ndarray:
    """The single-series smoothing the stacked one replaced."""
    kernel = gaussian_kernel(sigma)
    radius = (kernel.size - 1) // 2
    pad = min(radius, values.size - 1) if values.size > 1 else 0
    if pad > 0:
        padded = np.concatenate([values[pad:0:-1], values, values[-2: -2 - pad: -1]])
        extra = radius - pad
        if extra > 0:
            padded = np.concatenate(
                [np.full(extra, padded[0]), padded, np.full(extra, padded[-1])]
            )
    else:
        padded = np.concatenate(
            [np.full(radius, values[0]), values, np.full(radius, values[-1])]
        )
    return np.convolve(padded, kernel, mode="valid")


def reference_descriptors(length, positions, sigmas, gradients, config) -> np.ndarray:
    """The descriptor pass the stacked one replaced: ``**`` on every offset,
    ``np.add.at`` and one ``dot`` per row."""
    num_cells = config.num_cells
    descriptors = np.zeros((len(positions), num_cells * 2))
    for row, (position, sigma, gradient) in enumerate(zip(positions, sigmas, gradients)):
        radius = descriptor_window_radius(sigma, config)
        center = int(round(position))
        lo, hi = max(0, center - radius), min(length - 1, center + radius)
        samples = np.arange(lo, hi + 1)
        offsets = samples - position
        squares = np.asarray([offset ** 2 for offset in offsets.tolist()])
        weight_sigma = config.gaussian_weight_factor * radius
        weights = np.exp(-squares / (2.0 * weight_sigma ** 2))
        cells = ((samples - (position - radius)) / (2.0 * radius / num_cells)).astype(int)
        cells = np.minimum(np.maximum(cells, 0), num_cells - 1)
        grads = gradient[lo: hi + 1]
        rising = grads >= 0
        np.add.at(descriptors[row], cells * 2 + np.where(rising, 0, 1),
                  weights * np.where(rising, grads, -grads))
    if config.normalize:
        for row in descriptors:
            norm = np.sqrt(row.dot(row))
            if norm:
                row[:] = np.minimum(row / norm, config.clip_value)
                norm = np.sqrt(row.dot(row))
                if norm:
                    row[:] = row / norm
    return descriptors


def extract_step_by_step(series: np.ndarray, config: SDTWConfig) -> list:
    """One series through the public single-series steps, one at a time."""
    keypoints = detect_keypoints(build_scale_space(series, config.scale_space))
    gradients = {kp.sigma: np.gradient(gaussian_smooth(series, kp.sigma)) for kp in keypoints}
    descriptors = compute_descriptors(
        series.size, [kp.position for kp in keypoints], [kp.sigma for kp in keypoints],
        [gradients[kp.sigma] for kp in keypoints], config.descriptor,
    )
    return [keypoint_feature(kp, series, row) for kp, row in zip(keypoints, descriptors)]


def assert_same_features(stacked, alone) -> None:
    assert len(stacked) == len(alone)
    for a, b in zip(stacked, alone):
        assert (a.position, a.sigma, a.scope_start, a.scope_end, a.octave, a.level,
                a.amplitude, a.mean_amplitude, a.dog_value, a.scale_class) == (
            b.position, b.sigma, b.scope_start, b.scope_end, b.octave, b.level,
            b.amplitude, b.mean_amplitude, b.dog_value, b.scale_class)
        assert a.descriptor.tobytes() == b.descriptor.tobytes()


@STACK
@given(
    st.integers(1, 6),
    st.integers(2, 300),
    st.integers(0, 2 ** 32 - 1),
    st.one_of(st.floats(0.3, 4.0), st.floats(4.0, 120.0)),
)
def test_stacked_smoothing_equals_smoothing_each_row(count, length, seed, sigma):
    rows = make_stack(count, length, seed)
    smoothed = gaussian_smooth_rows(rows, sigma)
    for row, got in zip(rows, smoothed):
        assert got.tobytes() == gaussian_smooth(row, sigma).tobytes()
        assert got.tobytes() == reference_gaussian_smooth(row, sigma).tobytes()


def test_stacked_smoothing_reaches_the_edge_padding_branches():
    # Radius beyond n - 1 repeats the outermost reflected sample; a single
    # sample is repeated as it is.
    rows = make_stack(3, 5, 11)
    for sigma in (0.5, 1.0, 3.0, 30.0):
        for got, row in zip(gaussian_smooth_rows(rows, sigma), rows):
            assert got.tobytes() == reference_gaussian_smooth(row, sigma).tobytes()
    single = np.array([[2.5], [-1.0]])
    assert gaussian_smooth_rows(single, 2.0).tolist() == [[2.5], [-1.0]]


@STACK
@given(
    st.integers(1, 6),
    st.integers(16, 300),
    st.integers(0, 2 ** 32 - 1),
    st.booleans(),
    st.sampled_from([16, 64]),
)
def test_stacked_pass_equals_extraction_of_each_window(count, length, seed, quantize,
                                                       num_bins):
    config = SDTWConfig(descriptor=DescriptorConfig(num_bins=num_bins))
    rows = make_stack(count, length, seed, quantize)
    sets = extract_feature_sets(rows, config)
    assert len(sets) == count
    for feature_set, row in zip(sets, rows):
        alone = extract_salient_features(row, config)
        assert_same_features(feature_set, alone)
        assert_same_features(feature_set, extract_step_by_step(row, config))
        # The arrays stacked from the columns are the ones stacking the
        # features would give.
        stacked = FeatureSet(alone)
        for name in ("descriptors", "squared_norms", "amplitudes", "sigmas", "positions",
                     "scope_starts", "scope_ends", "mean_amplitudes"):
            assert getattr(feature_set, name).tobytes() == getattr(stacked, name).tobytes()


@STACK
@given(
    st.integers(1, 6),
    st.integers(1, 300),
    st.integers(0, 2 ** 32 - 1),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=40),
)
def test_grouped_scope_means_equal_np_mean(count, length, seed, scopes):
    rows = make_stack(count, length, seed)
    rng = np.random.default_rng(seed)
    series = rng.integers(0, count, len(scopes))
    last = float(length - 1)
    starts = np.array([min(a, b) * last for a, b in scopes])
    ends = np.array([max(a, b) * last for a, b in scopes])
    means = scope_means(rows, series, starts, ends)
    for mean, row, start, end in zip(means.tolist(), series.tolist(), starts, ends):
        values = rows[row, int(np.floor(start)): int(np.ceil(end)) + 1]
        assert mean == float(values.mean())


@STACK
@given(
    st.integers(16, 300),
    st.integers(0, 2 ** 32 - 1),
    st.lists(st.one_of(st.integers(0, 400).map(float), st.floats(0.0, 400.0)),
             min_size=1, max_size=30),
    st.lists(st.sampled_from([1.0, 2.0 ** 0.5, 2.0, 0.7, 3.3, 8.0]), min_size=1,
             max_size=4),
    st.builds(DescriptorConfig, num_bins=st.sampled_from([4, 16, 64]),
              gaussian_weight_factor=st.sampled_from([0.1, 0.5]),
              normalize=st.booleans(), clip_value=st.sampled_from([0.2, 1.0])),
)
def test_descriptors_equal_the_per_keypoint_pass(length, seed, positions, pool, config):
    # Integral and off-grid positions mixed: only integral offsets take
    # ``offset * offset``; off-grid ones keep ``**``, where numpy's square
    # differs from libm ``pow`` in the last bit for about 1 in 1000.
    (series,) = make_stack(1, length, seed)
    positions = [min(position, length - 1.0) for position in positions]
    sigmas = [pool[k % len(pool)] for k in range(len(positions))]
    gradients = {sigma: np.gradient(gaussian_smooth(series, sigma)) for sigma in pool}
    expected = reference_descriptors(
        length, positions, sigmas, [gradients[s] for s in sigmas], config
    )
    got = compute_descriptors(length, positions, sigmas, [gradients[s] for s in sigmas], config)
    assert got.tobytes() == expected.tobytes()
    # The stacked form over a gradient stack with rows in another order.
    order = sorted(gradients)[::-1]
    stacked = stack_descriptors(
        positions, sigmas, np.stack([gradients[s] for s in order]),
        [order.index(s) for s in sigmas], config,
    )
    assert stacked.tobytes() == expected.tobytes()


def test_integral_squares_equal_pow():
    # The descriptor pass squares offsets from integral positions as
    # ``x * x``: the square is an integer below 2**53, so it is exact and
    # equals ``x ** 2`` (libm ``pow``, under one ulp of error).
    integral = np.arange(-5000.0, 5001.0)
    assert (integral * integral).tobytes() == np.asarray(
        [offset ** 2 for offset in integral.tolist()]).tobytes()
