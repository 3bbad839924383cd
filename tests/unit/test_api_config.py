"""RunConfig: validation, serialization, and the removed kernel fields."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import RunConfig
from repro.core.exceptions import ModelError
from repro.experiments.synthetic import ExperimentPreset


class TestRemovedKernelFields:
    """Each kernel family has one production backend, so no field picks one."""

    @pytest.mark.parametrize("field", ["sfp_kernel", "sched_kernel"])
    def test_constructor_rejects_the_field(self, field):
        with pytest.raises(TypeError, match=field):
            RunConfig(**{field: "reference"})

    @pytest.mark.parametrize("field", ["sfp_kernel", "sched_kernel"])
    def test_from_dict_rejects_the_field(self, field):
        with pytest.raises(ModelError, match=f"Unknown RunConfig fields: \\['{field}'\\]"):
            RunConfig.from_dict({"preset": "fast", field: "reference"})

    def test_serialized_config_has_the_seven_knobs(self):
        assert sorted(RunConfig().to_dict()) == [
            "cache_dir",
            "cache_size_mb",
            "jobs",
            "output",
            "preset",
            "scenario_params",
            "seed",
        ]


class TestValidation:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.preset == "fast"
        assert config.jobs == 1
        assert config.cache_dir is None

    def test_unknown_preset_rejected(self):
        with pytest.raises(ModelError, match="Unknown preset"):
            RunConfig(preset="warp-speed")

    def test_negative_jobs_rejected(self):
        with pytest.raises(ModelError, match="jobs must be >= 0"):
            RunConfig(jobs=-1)

    def test_zero_seed_is_accepted(self):
        config = RunConfig(seed=0)
        assert config.seed == 0
        assert config.resolved_preset().base_seed == 0

    def test_tiny_cache_cap_rejected(self):
        with pytest.raises(ModelError, match="cache_size_mb"):
            RunConfig(cache_size_mb=0)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"jobs": "2"}, "jobs must be an integer"),
            ({"jobs": 1.5}, "jobs must be an integer"),
            ({"jobs": True}, "jobs must be an integer"),
            ({"seed": "x"}, "seed must be an integer"),
            ({"seed": False}, "seed must be an integer"),
            ({"seed": -5}, "seed must be >= 0"),
            ({"cache_size_mb": 2.5}, "cache_size_mb must be an integer"),
            ({"cache_size_mb": True}, "cache_size_mb must be an integer"),
            ({"preset": ["fast"]}, "Unknown preset"),
            ({"scenario_params": "ab"}, "scenario_params must be a mapping"),
            ({"cache_dir": 5}, "cache_dir must be a path"),
            ({"output": ["r.json"]}, "output must be a path"),
        ],
    )
    def test_mistyped_values_rejected(self, data, message):
        with pytest.raises(ModelError, match=message):
            RunConfig.from_dict(data)

    def test_integral_values_are_normalized(self):
        import numpy as np

        config = RunConfig(jobs=np.int64(2), seed=np.int32(5))
        assert type(config.jobs) is int and config.jobs == 2
        assert type(config.seed) is int and config.seed == 5

    def test_string_paths_are_coerced(self):
        config = RunConfig(cache_dir="/tmp/cache", output="/tmp/report.json")
        assert config.cache_dir == Path("/tmp/cache")
        assert config.output == Path("/tmp/report.json")

    def test_tilde_paths_are_expanded(self):
        config = RunConfig(cache_dir="~/.cache/repro")
        assert "~" not in str(config.cache_dir)
        assert config.cache_dir.is_absolute()


class TestPreset:
    def test_resolved_preset_matches_name(self):
        assert RunConfig(preset="smoke").resolved_preset() == ExperimentPreset.smoke()
        assert RunConfig(preset="fast").resolved_preset() == ExperimentPreset.fast()

    def test_seed_overrides_base_seed_only(self):
        preset = RunConfig(preset="fast", seed=42).resolved_preset()
        assert preset.base_seed == 42
        assert preset.n_applications == ExperimentPreset.fast().n_applications


class TestSerialization:
    def test_round_trip_defaults(self):
        config = RunConfig()
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_round_trip_fully_populated(self):
        config = RunConfig(
            cache_dir=Path("/tmp/store"),
            cache_size_mb=64,
            jobs=2,
            seed=7,
            preset="smoke",
            output=Path("/tmp/out.json"),
        )
        data = config.to_dict()
        assert data["cache_dir"] == "/tmp/store"  # JSON-native
        assert RunConfig.from_dict(data) == config

    def test_unknown_fields_rejected(self):
        with pytest.raises(ModelError, match="Unknown RunConfig fields"):
            RunConfig.from_dict({"preset": "fast", "warp": 9})


class TestScenarioParams:
    def test_default_is_an_empty_dict(self):
        assert RunConfig().scenario_params == {}

    def test_round_trip(self):
        config = RunConfig(
            scenario_params={"n_processes": 100, "seed": "7", "ratio": 0.25}
        )
        data = config.to_dict()
        assert data["scenario_params"] == {"n_processes": 100, "seed": "7", "ratio": 0.25}
        assert RunConfig.from_dict(data) == config

    def test_mapping_is_normalized_to_a_plain_dict(self):
        from collections import OrderedDict

        config = RunConfig(scenario_params=OrderedDict(a=1))
        assert type(config.scenario_params) is dict

    def test_empty_key_rejected(self):
        with pytest.raises(ModelError, match="non-empty strings"):
            RunConfig(scenario_params={"": 1})

    def test_non_scalar_value_rejected(self):
        with pytest.raises(ModelError, match="JSON-native scalar"):
            RunConfig(scenario_params={"grid": [1, 2, 3]})
