"""Tests for the classic global constraints (Sakoe–Chiba, Itakura)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dtw.banded import band_cell_count, validate_band
from repro.dtw.constraints import (
    full_band,
    itakura_band,
    sakoe_chiba_band,
    sakoe_chiba_band_fraction,
)
from repro.exceptions import ValidationError


class TestFullBand:
    def test_covers_entire_grid(self):
        band = full_band(6, 9)
        assert band_cell_count(band) == 54

    def test_rejects_non_positive_lengths(self):
        with pytest.raises(ValidationError):
            full_band(0, 5)


class TestSakoeChiba:
    def test_contains_the_diagonal(self):
        band = sakoe_chiba_band(20, 20, 3)
        for i in range(20):
            assert band[i, 0] <= i <= band[i, 1]

    def test_radius_zero_square_grid_is_diagonal(self):
        band = sakoe_chiba_band(10, 10, 0)
        np.testing.assert_array_equal(band[:, 0], band[:, 1])

    def test_width_grows_with_radius(self):
        narrow = sakoe_chiba_band(30, 30, 2)
        wide = sakoe_chiba_band(30, 30, 6)
        assert band_cell_count(wide) > band_cell_count(narrow)

    def test_rectangular_grid_follows_resampled_diagonal(self):
        band = sakoe_chiba_band(10, 20, 1)
        # The centre of the band for the last row must reach the last column.
        assert band[-1, 1] == 19
        assert band[0, 0] == 0

    def test_band_is_validated(self):
        band = sakoe_chiba_band(15, 25, 2)
        validate_band(band, 15, 25, repair=False)

    def test_fractional_radius_interpreted_as_width_fraction(self):
        band = sakoe_chiba_band(100, 100, 0.10)
        widths = band[:, 1] - band[:, 0] + 1
        # Each point should see roughly 10% of the other series.
        assert 8 <= np.median(widths) <= 14

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            sakoe_chiba_band(10, 10, -1)

    def test_single_point_series(self):
        band = sakoe_chiba_band(1, 8, 2)
        np.testing.assert_array_equal(band, [[0, 7]])

    @pytest.mark.parametrize("n,m", [
        (1, 1), (1, 8), (2, 1), (7, 7), (13, 40), (40, 13), (64, 64),
        (100, 257), (257, 100),
    ])
    @pytest.mark.parametrize("half", [0, 1, 3, 13, 300])
    def test_matches_the_per_row_formula(self, n, m, half):
        # Each row projected onto the resampled diagonal, one row at a time.
        expected = np.zeros((n, 2), dtype=int)
        if n == 1:
            expected[0] = (0, m - 1)
        else:
            for i in range(n):
                center = i * (m - 1) / (n - 1)
                lo = int(np.floor(center - half))
                hi = int(np.ceil(center + half))
                expected[i] = (max(0, lo), min(m - 1, hi))
            expected = validate_band(expected, n, m, repair=True)
        band = sakoe_chiba_band(n, m, half)
        assert band.dtype == expected.dtype
        np.testing.assert_array_equal(band, expected)


class TestSakoeChibaFraction:
    def test_cell_count_tracks_fraction(self):
        small = sakoe_chiba_band_fraction(100, 100, 0.06)
        large = sakoe_chiba_band_fraction(100, 100, 0.20)
        assert band_cell_count(small) < band_cell_count(large)
        # 20% band should fill roughly 20% of the grid (within slack for
        # rounding and edge clipping).
        assert 0.12 <= band_cell_count(large) / 10000.0 <= 0.30

    def test_fraction_above_one_rejected(self):
        with pytest.raises(ValidationError):
            sakoe_chiba_band_fraction(10, 10, 1.5)

    def test_fraction_zero_rejected(self):
        with pytest.raises(ValidationError):
            sakoe_chiba_band_fraction(10, 10, 0.0)


class TestItakura:
    def test_contains_corners(self):
        band = itakura_band(30, 30, max_slope=2.0)
        assert band[0, 0] == 0
        assert band[-1, 1] == 29

    def test_middle_is_widest(self):
        band = itakura_band(41, 41, max_slope=2.0)
        widths = band[:, 1] - band[:, 0] + 1
        middle = widths[20]
        assert middle >= widths[2]
        assert middle >= widths[-3]

    def test_larger_slope_widens_the_band(self):
        tight = itakura_band(40, 40, max_slope=1.5)
        loose = itakura_band(40, 40, max_slope=3.0)
        assert band_cell_count(loose) >= band_cell_count(tight)

    def test_slope_must_exceed_one(self):
        with pytest.raises(ValidationError):
            itakura_band(10, 10, max_slope=1.0)

    def test_slope_must_be_positive(self):
        with pytest.raises(ValidationError):
            itakura_band(10, 10, max_slope=-2.0)

    def test_rectangular_grid_supported(self):
        band = itakura_band(20, 35, max_slope=2.0)
        validate_band(band, 20, 35, repair=False)

    def test_parallelogram_is_narrower_than_full_grid(self):
        band = itakura_band(50, 50, max_slope=2.0)
        assert band_cell_count(band) < 50 * 50
