"""Tests for the Workspace configuration objects and their persistence."""

from __future__ import annotations

import json

import pytest

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.exceptions import ConfigurationError
from repro.service import (
    DEFAULT_WORKSPACE_CONFIG,
    EngineConfig,
    IndexConfig,
    ServingConfig,
    WorkspaceConfig,
)


class TestSectionDefaults:
    def test_default_sections_compose(self):
        config = WorkspaceConfig()
        assert isinstance(config.sdtw, SDTWConfig)
        assert isinstance(config.engine, EngineConfig)
        assert isinstance(config.index, IndexConfig)
        assert isinstance(config.serving, ServingConfig)
        assert config.default_k >= 1

    def test_module_default_matches_fresh_instance(self):
        assert DEFAULT_WORKSPACE_CONFIG == WorkspaceConfig()


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(backend="gpu")

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(num_workers=0)

    def test_invalid_index_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexConfig(num_codewords=0)
        with pytest.raises(ConfigurationError):
            IndexConfig(num_shards=0)
        with pytest.raises(ConfigurationError):
            IndexConfig(candidate_budget=0)

    def test_invalid_serving_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(slow_query_threshold=-1.0)

    def test_invalid_default_k_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkspaceConfig(default_k=0)


class TestRoundTrip:
    def test_default_round_trip_is_identity(self):
        config = WorkspaceConfig()
        assert WorkspaceConfig.from_dict(config.to_dict()) == config

    def test_non_default_round_trip_is_identity(self):
        config = WorkspaceConfig(
            sdtw=SDTWConfig(descriptor=DescriptorConfig(num_bins=16),
                            width_fraction=0.06),
            engine=EngineConfig(constraint="ac,aw", backend="vectorized",
                                prune=False, batch_size=8),
            index=IndexConfig(num_codewords=64, num_shards=2,
                              candidate_budget=25, seed=11, mmap=False),
            serving=ServingConfig(telemetry=False, slow_query_threshold=0.5),
            default_k=3,
        )
        rebuilt = WorkspaceConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.sdtw.descriptor.num_bins == 16
        assert rebuilt.engine.backend == "vectorized"
        assert rebuilt.serving.slow_query_threshold == 0.5

    def test_to_dict_is_json_serialisable(self):
        payload = json.dumps(WorkspaceConfig().to_dict())
        assert WorkspaceConfig.from_dict(json.loads(payload)) == WorkspaceConfig()

    def test_section_round_trips(self):
        for section in (
            EngineConfig(constraint="itakura", itakura_max_slope=3.0),
            IndexConfig(seed=3),
            ServingConfig(telemetry=False),
        ):
            assert type(section).from_dict(section.to_dict()) == section

    def test_from_dict_rejects_bad_values(self):
        payload = WorkspaceConfig().to_dict()
        payload["engine"]["backend"] = "bogus"
        with pytest.raises(ConfigurationError):
            WorkspaceConfig.from_dict(payload)
