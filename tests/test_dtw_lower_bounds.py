"""Tests for the DTW lower bounds (LB_Kim, LB_Yi, LB_Keogh, band envelope)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dtw.banded import abandon_cutoff, banded_dtw, validate_band
from repro.dtw.full import dtw_distance
from repro.dtw.lower_bounds import (
    keogh_envelope,
    lb_band_envelope,
    lb_keogh,
    lb_kim,
    lb_yi,
    range_extrema_table,
)


@pytest.fixture(scope="module")
def random_pairs():
    rng = np.random.default_rng(99)
    pairs = []
    for _ in range(10):
        n = int(rng.integers(20, 60))
        x = np.cumsum(rng.normal(size=n))
        y = np.cumsum(rng.normal(size=n))
        pairs.append((x, y))
    return pairs


class TestLBKim:
    def test_is_lower_bound(self, random_pairs):
        for x, y in random_pairs:
            assert lb_kim(x, y) <= dtw_distance(x, y) + 1e-9

    def test_zero_for_identical_series(self):
        series = np.linspace(0, 1, 30)
        assert lb_kim(series, series) == pytest.approx(0.0)

    def test_symmetric(self, random_pairs):
        x, y = random_pairs[0]
        assert lb_kim(x, y) == pytest.approx(lb_kim(y, x))


class TestLBYi:
    def test_is_lower_bound(self, random_pairs):
        for x, y in random_pairs:
            assert lb_yi(x, y) <= dtw_distance(x, y) + 1e-9

    def test_zero_when_ranges_overlap_completely(self):
        x = np.array([0.2, 0.5, 0.8])
        y = np.array([0.0, 1.0])
        assert lb_yi(x, y) == pytest.approx(0.0)

    def test_positive_when_query_exceeds_range(self):
        x = np.array([2.0, 3.0])
        y = np.array([0.0, 1.0])
        assert lb_yi(x, y) == pytest.approx(1.0 + 2.0)


class TestKeoghEnvelope:
    def test_envelope_bounds_the_series(self):
        series = np.sin(np.linspace(0, 6, 50))
        upper, lower = keogh_envelope(series, 4)
        assert np.all(upper >= series - 1e-12)
        assert np.all(lower <= series + 1e-12)

    def test_radius_zero_envelope_is_the_series(self):
        series = np.linspace(0, 1, 20)
        upper, lower = keogh_envelope(series, 0)
        np.testing.assert_allclose(upper, series)
        np.testing.assert_allclose(lower, series)

    def test_wider_radius_widens_envelope(self):
        series = np.sin(np.linspace(0, 6, 50))
        up1, lo1 = keogh_envelope(series, 1)
        up5, lo5 = keogh_envelope(series, 5)
        assert np.all(up5 >= up1 - 1e-12)
        assert np.all(lo5 <= lo1 + 1e-12)


class TestLBKeogh:
    def test_lower_bounds_constrained_dtw_at_same_radius(self, random_pairs):
        from repro.dtw.banded import banded_dtw
        from repro.dtw.constraints import sakoe_chiba_band

        for x, y in random_pairs:
            radius = max(3, x.size // 10)
            bound = lb_keogh(x, y, radius=radius)
            band = sakoe_chiba_band(x.size, y.size, radius)
            constrained = banded_dtw(x, y, band, return_path=False).distance
            assert bound <= constrained + 1e-9

    def test_full_radius_bounds_unconstrained_dtw(self, random_pairs):
        for x, y in random_pairs:
            bound = lb_keogh(x, y, radius=x.size)
            assert bound <= dtw_distance(x, y) + 1e-9

    def test_zero_for_identical_series(self):
        series = np.sin(np.linspace(0, 6, 40))
        assert lb_keogh(series, series, radius=3) == pytest.approx(0.0)

    def test_zero_when_query_inside_envelope(self):
        y = np.sin(np.linspace(0, 6, 40))
        x = 0.5 * y  # always within [min, max] window of y around each point
        assert lb_keogh(x, y, radius=5) >= 0.0

    def test_precomputed_envelope_matches_direct_call(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        envelope = keogh_envelope(y, 4)
        assert lb_keogh(x, y, 4, envelope=envelope) == pytest.approx(
            lb_keogh(x, y, 4)
        )

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        tight = lb_keogh(x, y, radius=1)
        loose = lb_keogh(x, y, radius=10)
        assert loose <= tight + 1e-9


values = st.one_of(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
              allow_infinity=False, width=32),
    st.integers(min_value=-3, max_value=3).map(float),
)


@st.composite
def banded_windows(draw):
    """Series of one length, each with its own repaired band over y."""
    count = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=1, max_value=30))
    y = np.asarray(draw(st.lists(values, min_size=m, max_size=m)))
    xs = np.asarray(draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                  min_size=count, max_size=count)))
    bands = []
    for _ in range(count):
        starts = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        spans = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        band = np.stack([np.array(starts), np.array(starts) + np.array(spans)], axis=1)
        bands.append(validate_band(band, n, m, repair=True))
    return xs, y, np.stack(bands)


class TestBandEnvelope:
    @given(y=st.lists(values, min_size=1, max_size=70))
    @settings(max_examples=40, deadline=None)
    def test_table_gives_exact_range_extrema(self, y):
        y = np.asarray(y)
        lo, hi = np.triu_indices(y.size)
        # One single-row window per range y[lo..hi].
        bands = np.stack([lo, hi], axis=1)[:, np.newaxis, :]
        lower = np.array([y[a: b + 1].min() for a, b in zip(lo, hi)])
        upper = np.array([y[a: b + 1].max() for a, b in zip(lo, hi)])
        table = range_extrema_table(y)
        # A sample below (above) a range is charged its distance to the
        # range's exact minimum (maximum); one inside is charged nothing.
        below, above = lower - 1.0, upper + 1.0
        np.testing.assert_array_equal(
            lb_band_envelope(below[:, np.newaxis], bands, table), lower - below
        )
        np.testing.assert_array_equal(
            lb_band_envelope(above[:, np.newaxis], bands, table), above - upper
        )
        np.testing.assert_array_equal(
            lb_band_envelope(lower[:, np.newaxis], bands, table), 0.0
        )

    @given(inputs=banded_windows(), fraction=st.floats(0.0, 2.0))
    @settings(max_examples=120, deadline=None)
    def test_admissible_and_never_prunes_a_completing_dp(self, inputs, fraction):
        xs, y, bands = inputs
        bounds = lb_band_envelope(xs, bands, range_extrema_table(y))
        for x, band, bound in zip(xs, bands, bounds):
            distance = banded_dtw(x, y, band, return_path=False).distance
            assert bound <= abandon_cutoff(distance)
            # The streaming matchers prune at bound > cutoff(threshold):
            # the DP under that threshold must then abandon.
            for threshold in (fraction * distance, distance, fraction * bound):
                if bound > abandon_cutoff(threshold):
                    assert banded_dtw(
                        x, y, band, return_path=False, abandon_threshold=threshold
                    ).abandoned
