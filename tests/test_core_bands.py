"""Tests for the locally relevant constraint bands (Section 3.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bands import (
    ConstraintSpec,
    build_constraint_band,
    build_symmetric_band,
    parse_constraint_spec,
    resolve_constraint,
)
from repro.core.config import SDTWConfig
from repro.core.intervals import partition_from_boundaries
from repro.dtw.banded import band_cell_count, band_to_mask, validate_band
from repro.dtw.constraints import full_band, itakura_band, sakoe_chiba_band_fraction
from repro.engine import DistanceEngine, normalize_constraint
from repro.exceptions import ConfigurationError, ValidationError
from repro.streaming.subsequence import SlidingWindowMatcher


@pytest.fixture()
def simple_partition():
    """A partition where the second half of Y is stretched relative to X."""
    return partition_from_boundaries([20.0, 50.0], [10.0, 30.0], n=100, m=100)


class TestParseConstraintSpec:
    def test_known_labels(self):
        assert parse_constraint_spec("fc,fw").label == "fc,fw"
        assert parse_constraint_spec("fc,aw").label == "fc,aw"
        assert parse_constraint_spec("ac,fw").label == "ac,fw"
        assert parse_constraint_spec("ac,aw").label == "ac,aw"
        assert parse_constraint_spec("ac2,aw").label == "ac2,aw"

    def test_aliases_and_case_insensitivity(self):
        assert parse_constraint_spec("Sakoe-Chiba").core == "fixed"
        assert parse_constraint_spec("AC,AW").core == "adaptive"
        assert parse_constraint_spec(" ac , aw ").width == "adaptive"

    def test_spec_objects_pass_through(self):
        spec = ConstraintSpec("adaptive", "fixed")
        assert parse_constraint_spec(spec) is spec

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            parse_constraint_spec("nonsense")

    def test_invalid_spec_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstraintSpec("diagonal", "fixed")
        with pytest.raises(ConfigurationError):
            ConstraintSpec("fixed", "wide")
        with pytest.raises(ConfigurationError):
            ConstraintSpec("fixed", "fixed", neighbor_radius=-1)

    def test_ac2_label_reflects_neighbor_radius(self):
        spec = ConstraintSpec("adaptive", "adaptive", neighbor_radius=1)
        assert spec.label == "ac2,aw"
        spec3 = ConstraintSpec("adaptive", "adaptive", neighbor_radius=2)
        assert spec3.label == "ac3,aw"


# (inputs, canonical label, whether the family aligns salient features)
FAMILIES = [
    (("full", "FULL", " Full "), "full", False),
    (("itakura", "ITAKURA", " ita kura "), "itakura", False),
    (("fc,fw", "fcfw", "sakoe", "Sakoe-Chiba", " FC , FW ",
      ConstraintSpec("fixed", "fixed")), "fc,fw", False),
    (("fc,aw", "fcaw", "FC,AW", ConstraintSpec("fixed", "adaptive")), "fc,aw", True),
    (("ac,fw", "acfw", "Ac, Fw", ConstraintSpec("adaptive", "fixed")), "ac,fw", True),
    (("ac,aw", "acaw", " AC , AW ", ConstraintSpec("adaptive", "adaptive")), "ac,aw", True),
    (("ac2,aw", "ac2aw", "AC2,AW", ConstraintSpec("adaptive", "adaptive", 1)), "ac2,aw", True),
    ((ConstraintSpec("adaptive", "adaptive", 2),), "ac3,aw", True),
]
SHAPES = [(40, 40), (64, 64), (50, 80), (97, 33), (1, 7), (7, 1)]


class TestResolveConstraint:
    @pytest.mark.parametrize("inputs, label, aligns", FAMILIES)
    def test_family_table(self, inputs, label, aligns):
        pattern = np.sin(np.linspace(0.0, 6.0, 24))
        for constraint in inputs:
            resolved = resolve_constraint(constraint)
            assert resolved.label == label
            assert resolved.aligns is aligns
            assert resolve_constraint(resolved) is resolved
            assert normalize_constraint(constraint) == label
            if label in ("full", "itakura"):
                assert resolved.spec is None
                with pytest.raises(ValidationError):
                    parse_constraint_spec(constraint)
            else:
                assert resolved.spec.label == label
                assert parse_constraint_spec(constraint) == resolved.spec
            # Every entry point resolves the label the same way.
            assert DistanceEngine(constraint).constraint == label
            matcher = SlidingWindowMatcher(pattern, 1.0, constraint=constraint)
            assert matcher.constraint == label
            assert (matcher.extractor is not None) is aligns
            for width in (0.1, 0.25):
                config = SDTWConfig(width_fraction=width)
                for n, m in SHAPES:
                    for slope in (2.0, 3.0):
                        band = resolved.band(n, m, config, slope)
                        if aligns:
                            assert band is None
                            continue
                        expected = {
                            "full": lambda: full_band(n, m),
                            "itakura": lambda: itakura_band(n, m, slope),
                            "fc,fw": lambda: sakoe_chiba_band_fraction(n, m, width),
                        }[label]()
                        assert band.dtype == expected.dtype
                        assert band.shape == expected.shape
                        assert band.tobytes() == expected.tobytes()
                    radius = resolved.envelope_radius(m, config)
                    if label == "fc,fw":
                        assert radius == max(1, int(round(width * m / 2.0))) + 1
                    else:
                        assert radius is None

    @pytest.mark.parametrize(
        "label", ["nonsense", "", "fc", "full,fw", "itakura2", "ac,aw,ac", "dtw"]
    )
    def test_unknown_labels_raise(self, label):
        with pytest.raises(ValidationError, match="full.*itakura"):
            resolve_constraint(label)
        with pytest.raises(ValidationError):
            DistanceEngine(label)
        with pytest.raises(ValidationError):
            SlidingWindowMatcher(np.ones(8), 1.0, constraint=label)


class TestFixedCoreFixedWidth:
    def test_matches_sakoe_chiba_band(self):
        config = SDTWConfig(width_fraction=0.10)
        band = build_constraint_band(80, 90, "fc,fw", None, config)
        expected = sakoe_chiba_band_fraction(80, 90, 0.10)
        np.testing.assert_array_equal(band, expected)

    def test_width_fraction_controls_area(self):
        narrow = build_constraint_band(100, 100, "fc,fw", None,
                                       SDTWConfig(width_fraction=0.06))
        wide = build_constraint_band(100, 100, "fc,fw", None,
                                     SDTWConfig(width_fraction=0.20))
        assert band_cell_count(narrow) < band_cell_count(wide)


class TestAdaptiveCore:
    def test_core_follows_partition_mapping(self, simple_partition):
        config = SDTWConfig(width_fraction=0.06)
        band = build_constraint_band(100, 100, "ac,fw", simple_partition, config)
        # In X interval [20, 50] mapping to Y interval [10, 30], the centre
        # of the band at x=35 should sit near y=20, well below the diagonal.
        centre = (band[35, 0] + band[35, 1]) / 2.0
        assert centre < 30

    def test_without_partition_falls_back_to_diagonal(self):
        config = SDTWConfig(width_fraction=0.06)
        adaptive = build_constraint_band(60, 60, "ac,fw", None, config)
        fixed = build_constraint_band(60, 60, "fc,fw", None, config)
        np.testing.assert_array_equal(adaptive, fixed)

    def test_band_always_contains_corners(self, simple_partition):
        for spec in ("ac,fw", "ac,aw", "ac2,aw", "fc,aw"):
            band = build_constraint_band(100, 100, spec, simple_partition)
            assert band[0, 0] == 0
            assert band[-1, 1] == 99

    def test_band_is_connected(self, simple_partition):
        for spec in ("ac,fw", "ac,aw", "ac2,aw"):
            band = build_constraint_band(100, 100, spec, simple_partition)
            validate_band(band, 100, 100, repair=False)

    def test_empty_y_interval_maps_to_single_point(self):
        # Y boundaries coincide: the middle Y interval is a single sample.
        partition = partition_from_boundaries([30.0, 60.0], [45.0, 45.0],
                                               n=100, m=100)
        band = build_constraint_band(100, 100, "ac,fw", partition,
                                     SDTWConfig(width_fraction=0.06))
        validate_band(band, 100, 100, repair=False)
        # Points in X's middle interval should centre near y=45.
        centre = (band[45, 0] + band[45, 1]) / 2.0
        assert abs(centre - 45) < 10

    def test_empty_x_interval_band_still_usable(self):
        partition = partition_from_boundaries([40.0, 40.0], [30.0, 60.0],
                                               n=100, m=100)
        band = build_constraint_band(100, 100, "ac,fw", partition,
                                     SDTWConfig(width_fraction=0.06))
        validate_band(band, 100, 100, repair=False)


class TestAdaptiveWidth:
    def test_adaptive_width_respects_lower_bound(self, simple_partition):
        config = SDTWConfig(adaptive_width_lower_bound=0.30)
        band = build_constraint_band(100, 100, "fc,aw", simple_partition, config)
        widths = band[:, 1] - band[:, 0] + 1
        # Interior rows (unclipped by the grid edge) must satisfy the bound.
        assert np.median(widths) >= 0.30 * 100 * 0.9

    def test_adaptive_width_respects_upper_bound(self, simple_partition):
        config = SDTWConfig(adaptive_width_lower_bound=0.05,
                            adaptive_width_upper_bound=0.10)
        band = build_constraint_band(100, 100, "ac,aw", simple_partition, config)
        widths = band[:, 1] - band[:, 0] + 1
        assert np.max(widths) <= 0.10 * 100 + 3

    def test_neighbor_averaging_smooths_widths(self):
        # One tiny interval between two huge ones: averaging should make the
        # width in the tiny interval larger than the local width.
        partition = partition_from_boundaries([48.0, 52.0], [48.0, 52.0],
                                               n=100, m=100)
        config = SDTWConfig(adaptive_width_lower_bound=0.0)
        local = build_constraint_band(100, 100, "ac,aw", partition, config)
        averaged = build_constraint_band(100, 100, "ac2,aw", partition, config)
        local_width = local[50, 1] - local[50, 0] + 1
        averaged_width = averaged[50, 1] - averaged[50, 0] + 1
        assert averaged_width >= local_width

    def test_no_partition_adaptive_width_uses_lower_bound(self):
        config = SDTWConfig(width_fraction=0.06, adaptive_width_lower_bound=0.20)
        band = build_constraint_band(60, 60, "fc,aw", None, config)
        widths = band[:, 1] - band[:, 0] + 1
        assert np.median(widths) >= 0.18 * 60


class TestSymmetricBand:
    def test_symmetric_band_contains_forward_band(self, simple_partition):
        config = SDTWConfig(width_fraction=0.06)
        forward = build_constraint_band(100, 100, "ac,fw", simple_partition, config)
        reverse_partition = partition_from_boundaries(
            [10.0, 30.0], [20.0, 50.0], n=100, m=100
        )
        backward = build_constraint_band(100, 100, "ac,fw", reverse_partition, config)
        combined = build_symmetric_band(forward, backward, 100, 100)
        mask_forward = band_to_mask(forward, 100)
        mask_combined = band_to_mask(combined, 100)
        assert np.all(mask_combined[mask_forward])

    def test_symmetric_band_is_valid(self, simple_partition):
        config = SDTWConfig(width_fraction=0.06)
        forward = build_constraint_band(100, 100, "ac,fw", simple_partition, config)
        backward = build_constraint_band(100, 100, "fc,fw", None, config)
        combined = build_symmetric_band(forward, backward, 100, 100)
        validate_band(combined, 100, 100, repair=False)
