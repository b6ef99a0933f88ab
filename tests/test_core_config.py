"""Tests for the configuration objects and their validation."""

from __future__ import annotations

import math

import pytest

from repro.core.config import (
    DEFAULT_CONFIG,
    DescriptorConfig,
    MatchingConfig,
    SDTWConfig,
    ScaleSpaceConfig,
)
from repro.exceptions import ConfigurationError


class TestScaleSpaceConfig:
    def test_defaults_follow_the_paper(self):
        config = ScaleSpaceConfig()
        assert config.levels_per_octave == 2
        assert config.epsilon == pytest.approx(0.0096)
        assert config.scope_radius_sigmas == 3.0

    def test_kappa_satisfies_kappa_to_s_equals_two(self):
        for s in (1, 2, 3, 4):
            config = ScaleSpaceConfig(levels_per_octave=s)
            assert config.kappa ** s == pytest.approx(2.0)

    def test_octaves_for_length_paper_rule(self):
        config = ScaleSpaceConfig()
        # floor(log2(150)) - 6 = 7 - 6 = 1
        assert config.octaves_for_length(150) == 1
        # floor(log2(275)) - 6 = 8 - 6 = 2
        assert config.octaves_for_length(275) == 2
        # Very long series get more octaves.
        assert config.octaves_for_length(4096) == 6

    def test_octaves_never_below_one(self):
        config = ScaleSpaceConfig()
        assert config.octaves_for_length(16) == 1
        assert config.octaves_for_length(2) == 1

    def test_explicit_octave_count_capped_by_length(self):
        config = ScaleSpaceConfig(num_octaves=10)
        assert config.octaves_for_length(32) <= math.floor(math.log2(32))

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ScaleSpaceConfig(num_octaves=0)
        with pytest.raises(ConfigurationError):
            ScaleSpaceConfig(levels_per_octave=0)
        with pytest.raises(ConfigurationError):
            ScaleSpaceConfig(base_sigma=0.0)
        with pytest.raises(ConfigurationError):
            ScaleSpaceConfig(epsilon=1.0)
        with pytest.raises(ConfigurationError):
            ScaleSpaceConfig(scope_radius_sigmas=0.0)
        with pytest.raises(ConfigurationError):
            ScaleSpaceConfig(contrast_threshold=-0.1)
        with pytest.raises(ConfigurationError):
            ScaleSpaceConfig(min_series_length=1)


class TestDescriptorConfig:
    def test_default_length_matches_paper(self):
        assert DescriptorConfig().num_bins == 64

    def test_num_cells_is_half_the_bins(self):
        assert DescriptorConfig(num_bins=8).num_cells == 4

    def test_odd_bin_count_rejected(self):
        with pytest.raises(ConfigurationError):
            DescriptorConfig(num_bins=7)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ConfigurationError):
            DescriptorConfig(num_bins=2)

    def test_invalid_auxiliary_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            DescriptorConfig(samples_per_cell=0)
        with pytest.raises(ConfigurationError):
            DescriptorConfig(gaussian_weight_factor=0.0)
        with pytest.raises(ConfigurationError):
            DescriptorConfig(clip_value=0.0)


class TestMatchingConfig:
    def test_defaults_are_sane(self):
        config = MatchingConfig()
        assert config.distinctiveness_ratio > 1.0
        assert config.prune_inconsistencies

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            MatchingConfig(max_amplitude_difference=0.0)
        with pytest.raises(ConfigurationError):
            MatchingConfig(max_scale_ratio=0.5)
        with pytest.raises(ConfigurationError):
            MatchingConfig(distinctiveness_ratio=1.0)


class TestSDTWConfig:
    def test_default_config_exposes_sections(self):
        assert isinstance(DEFAULT_CONFIG.scale_space, ScaleSpaceConfig)
        assert isinstance(DEFAULT_CONFIG.descriptor, DescriptorConfig)
        assert isinstance(DEFAULT_CONFIG.matching, MatchingConfig)

    def test_default_widths_follow_the_paper(self):
        assert DEFAULT_CONFIG.adaptive_width_lower_bound == pytest.approx(0.20)

    def test_with_descriptor_bins_returns_new_config(self):
        derived = DEFAULT_CONFIG.with_descriptor_bins(16)
        assert derived.descriptor.num_bins == 16
        assert DEFAULT_CONFIG.descriptor.num_bins == 64
        assert derived.scale_space is DEFAULT_CONFIG.scale_space

    def test_with_width_fraction_returns_new_config(self):
        derived = DEFAULT_CONFIG.with_width_fraction(0.06)
        assert derived.width_fraction == pytest.approx(0.06)
        assert DEFAULT_CONFIG.width_fraction == pytest.approx(0.10)

    def test_invalid_width_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            SDTWConfig(width_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SDTWConfig(width_fraction=1.5)

    def test_invalid_adaptive_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            SDTWConfig(adaptive_width_lower_bound=-0.1)
        with pytest.raises(ConfigurationError):
            SDTWConfig(adaptive_width_upper_bound=0.0)
        with pytest.raises(ConfigurationError):
            SDTWConfig(adaptive_width_lower_bound=0.5,
                       adaptive_width_upper_bound=0.3)

    def test_configs_are_immutable(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.width_fraction = 0.5  # type: ignore[misc]


class TestDictRoundTrips:
    """Every config dataclass persists through to_dict/from_dict exactly."""

    def test_scale_space_round_trip(self):
        config = ScaleSpaceConfig(num_octaves=3, levels_per_octave=4,
                                  base_sigma=1.5, epsilon=0.02)
        assert ScaleSpaceConfig.from_dict(config.to_dict()) == config

    def test_descriptor_round_trip(self):
        config = DescriptorConfig(num_bins=16, samples_per_cell=3,
                                  normalize=False)
        assert DescriptorConfig.from_dict(config.to_dict()) == config

    def test_matching_round_trip(self):
        config = MatchingConfig(max_amplitude_difference=0.5,
                                require_distinctive=False)
        assert MatchingConfig.from_dict(config.to_dict()) == config

    def test_sdtw_round_trip_with_non_default_sections(self):
        config = SDTWConfig(
            scale_space=ScaleSpaceConfig(num_octaves=2),
            descriptor=DescriptorConfig(num_bins=8),
            matching=MatchingConfig(max_scale_ratio=2.0),
            width_fraction=0.06,
            adaptive_width_upper_bound=0.5,
            symmetric_band=True,
        )
        rebuilt = SDTWConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.descriptor.num_bins == 8

    def test_retired_neighbor_radius_key_is_dropped(self):
        # ac2,aw's averaging radius comes from the constraint label; the
        # knob configurations once persisted never reached the bands.
        payload = SDTWConfig(width_fraction=0.06).to_dict()
        assert "neighbor_radius" not in payload
        payload["neighbor_radius"] = 3
        assert SDTWConfig.from_dict(payload) == SDTWConfig(width_fraction=0.06)

    def test_round_trip_is_json_compatible(self):
        import json

        payload = json.dumps(DEFAULT_CONFIG.to_dict())
        assert SDTWConfig.from_dict(json.loads(payload)) == DEFAULT_CONFIG

    def test_from_dict_still_validates(self):
        payload = DescriptorConfig().to_dict()
        payload["num_bins"] = 7
        with pytest.raises(ConfigurationError):
            DescriptorConfig.from_dict(payload)
