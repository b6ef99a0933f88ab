"""Micro-benchmarks of the computational kernels.

Not a paper figure, but useful for tracking the cost of the primitives the
experiments are built from: the full DTW dynamic program, the banded DP at
the paper's band widths (plain and early-abandoning), FastDTW,
salient-feature extraction, and the matching + pruning step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SDTWConfig
from repro.core.consistency import prune_inconsistent_pairs
from repro.core.features import extract_salient_features
from repro.core.matching import match_salient_features
from repro.core.sdtw import SDTW
from repro.dtw.banded import banded_dtw
from repro.dtw.constraints import sakoe_chiba_band_fraction
from repro.dtw.fastdtw import fastdtw
from repro.dtw.full import dtw_distance


@pytest.fixture(scope="module")
def series_pair():
    rng = np.random.default_rng(7)
    t = np.linspace(0, 1, 275)
    x = np.exp(-((t - 0.4) ** 2) / 0.003) + 0.3 * np.sin(8 * t) + rng.normal(0, 0.01, t.size)
    y = np.exp(-((t - 0.5) ** 2) / 0.003) + 0.3 * np.sin(8 * t - 0.4) + rng.normal(0, 0.01, t.size)
    return x, y


def test_kernel_full_dtw(benchmark, series_pair):
    x, y = series_pair
    value = benchmark(lambda: dtw_distance(x, y))
    assert value >= 0.0


@pytest.mark.parametrize("width", [0.06, 0.10, 0.20])
def test_kernel_banded_dtw(benchmark, series_pair, width):
    x, y = series_pair
    band = sakoe_chiba_band_fraction(x.size, y.size, width)
    result = benchmark(lambda: banded_dtw(x, y, band, return_path=False))
    assert result.distance >= dtw_distance(x, y) - 1e-9


@pytest.mark.parametrize("threshold_factor", [0.5, 2.0])
def test_kernel_banded_dtw_early_abandoning(benchmark, series_pair, threshold_factor):
    # The engine's per-pair call shape: distance only, with the running
    # k-th best distance as the abandonment threshold.  At 0.5x the pair
    # is abandoned partway; at 2x every row is checked and none abandons.
    x, y = series_pair
    band = sakoe_chiba_band_fraction(x.size, y.size, 0.10)
    exact = banded_dtw(x, y, band, return_path=False).distance
    threshold = threshold_factor * exact
    result = benchmark(lambda: banded_dtw(x, y, band, return_path=False,
                                          abandon_threshold=threshold))
    assert result.abandoned == (threshold_factor < 1.0)


def test_kernel_fastdtw(benchmark, series_pair):
    x, y = series_pair
    result = benchmark(lambda: fastdtw(x, y, radius=1))
    assert result.distance >= 0.0


def test_kernel_feature_extraction(benchmark, series_pair):
    x, _ = series_pair
    features = benchmark(lambda: extract_salient_features(x, SDTWConfig()))
    assert len(features) > 0


def test_kernel_matching_and_pruning(benchmark, series_pair):
    x, y = series_pair
    config = SDTWConfig()
    fx = extract_salient_features(x, config)
    fy = extract_salient_features(y, config)

    def run():
        matches = match_salient_features(fx, fy, config.matching)
        return prune_inconsistent_pairs(matches, config.matching)

    alignment = benchmark(run)
    assert alignment.num_pairs >= 0


def test_kernel_end_to_end_sdtw(benchmark, series_pair):
    x, y = series_pair
    engine = SDTW()
    engine.extract_features(x)
    engine.extract_features(y)
    result = benchmark(lambda: engine.distance(x, y, "ac,aw"))
    assert result.distance >= 0.0
