"""RunConfig: validation, serialization, and the documented resolution order.

The resolution order — explicit config field > environment variable > auto —
is the contract replacing the old flag/env/global-default plumbing; these
tests pin it for both kernel families.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import api
from repro.api import RunConfig
from repro.core.exceptions import ModelError
from repro.experiments.synthetic import ExperimentPreset
from repro.kernels import KERNEL_ENV_VAR, SCHED_KERNEL_ENV_VAR


@pytest.fixture(autouse=True)
def _no_env(monkeypatch):
    """Resolution tests control the env vars explicitly."""
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    monkeypatch.delenv(SCHED_KERNEL_ENV_VAR, raising=False)


class TestResolutionOrder:
    def test_explicit_arg_beats_env_sfp(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "array")
        config = RunConfig(sfp_kernel="reference")
        assert config.resolved_sfp_kernel() == "reference"

    def test_explicit_arg_beats_env_sched(self, monkeypatch):
        monkeypatch.setenv(SCHED_KERNEL_ENV_VAR, "flat")
        config = RunConfig(sched_kernel="reference")
        assert config.resolved_sched_kernel() == "reference"

    def test_env_beats_auto_sfp(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        assert RunConfig().resolved_sfp_kernel() == "reference"

    def test_env_beats_auto_sched(self, monkeypatch):
        monkeypatch.setenv(SCHED_KERNEL_ENV_VAR, "reference")
        assert RunConfig().resolved_sched_kernel() == "reference"

    def test_auto_when_nothing_is_set(self):
        # auto resolves to the fastest available backend of each family.
        assert RunConfig().resolved_sfp_kernel() == "array"
        assert RunConfig().resolved_sched_kernel() == "flat"

    def test_explicit_auto_resolves_to_a_concrete_backend(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        # An explicit "auto" is still an explicit selection: it bypasses env.
        assert RunConfig(sfp_kernel="auto").resolved_sfp_kernel() == "array"

    @pytest.mark.parametrize(
        "field, family",
        [("sfp_kernel", "SFP kernel"), ("sched_kernel", "scheduler kernel")],
    )
    def test_removed_batch_backend_is_rejected_by_run(self, field, family):
        config = RunConfig.from_dict({field: "batch"})
        with pytest.raises(ModelError, match=f"Unknown {family} 'batch'"):
            api.run("motivational", config)

    def test_unknown_kernel_name_is_rejected_at_resolution(self):
        with pytest.raises(ModelError, match="Unknown SFP kernel"):
            RunConfig(sfp_kernel="no-such-backend").resolved_sfp_kernel()


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

    def test_tiny_cache_cap_rejected(self):
        with pytest.raises(ModelError, match="cache_size_mb"):
            RunConfig(cache_size_mb=0)

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
            sfp_kernel="reference",
            sched_kernel="flat",
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
