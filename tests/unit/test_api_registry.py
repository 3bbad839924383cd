"""Scenario registry: parameter schemas, resolution and payload canonicalization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import RunConfig, RunReport
from repro.api.registry import (
    ScenarioOutcome,
    ScenarioParam,
    ScenarioSpec,
    canonicalize_payload,
    get_scenario,
    register_scenario,
)
from repro.core.exceptions import ModelError


class TestScenarioParam:
    def test_int_coercion_from_cli_string(self):
        param = ScenarioParam("n", "int", default=5)
        assert param.coerce("12") == 12
        assert isinstance(param.coerce("12"), int)

    def test_int_rejects_fractional_floats(self):
        param = ScenarioParam("n", "int")
        with pytest.raises(ModelError, match="expects int"):
            param.coerce(2.5)
        assert param.coerce(2.0) == 2

    def test_float_coercion(self):
        param = ScenarioParam("p", "float", default=0.5)
        assert param.coerce("0.25") == 0.25

    @pytest.mark.parametrize("kind", ["int", "float"])
    @pytest.mark.parametrize("raw", [True, False])
    def test_numbers_reject_bools(self, kind, raw):
        with pytest.raises(ModelError, match=f"expects {kind}"):
            ScenarioParam("n", kind).coerce(raw)

    @pytest.mark.parametrize(
        "raw",
        [float("nan"), float("inf"), "nan", "-inf"],
        ids=["nan", "inf", "nan-string", "minus-inf-string"],
    )
    def test_float_rejects_non_finite_values(self, raw):
        # Unbounded on purpose: NaN must fail even where no bound would catch it.
        with pytest.raises(ModelError, match="expects float"):
            ScenarioParam("p", "float").coerce(raw)

    def test_inclusive_bounds(self):
        param = ScenarioParam("n", "int", default=5, minimum=1, maximum=10)
        assert param.coerce(1) == 1
        assert param.coerce(10) == 10
        with pytest.raises(ModelError, match=">= 1"):
            param.coerce(0)
        with pytest.raises(ModelError, match="<= 10"):
            param.coerce(11)

    def test_default_is_validated_against_the_schema(self):
        with pytest.raises(ModelError, match=">= 1"):
            ScenarioParam("n", "int", default=0, minimum=1)

    def test_unknown_type_rejected(self):
        with pytest.raises(ModelError, match="Unknown ScenarioParam type"):
            ScenarioParam("n", "complex")

    def test_describe_renders_type_default_and_bounds(self):
        param = ScenarioParam("n_processes", "int", default=20, minimum=1)
        assert param.describe() == "n_processes:int=20 [1..]"
        assert ScenarioParam("layers", "int", minimum=1).describe() == "layers:int [1..]"


class TestResolveParams:
    def _spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            scenario_id="family",
            title="t",
            params=(
                ScenarioParam("n", "int", default=20, minimum=1),
                ScenarioParam("layers", "int", minimum=1),
            ),
            runner=lambda session, params: ScenarioOutcome(payload={}),
        )

    def test_defaults_apply_without_overrides(self):
        assert self._spec().resolve_params() == {"n": 20, "layers": None}

    def test_explicit_override_beats_default(self):
        resolved = self._spec().resolve_params({"n": "50"})
        assert resolved == {"n": 50, "layers": None}

    def test_unknown_name_fails_with_schema(self):
        with pytest.raises(ModelError, match=r"n:int=20 \[1\.\.\]"):
            self._spec().resolve_params({"bogus": 1})

    def test_parameterless_scenario_rejects_any_override(self):
        spec = ScenarioSpec(
            scenario_id="fixed",
            title="t",
            runner=lambda session, params: ScenarioOutcome(payload={}),
        )
        with pytest.raises(ModelError, match="accepts no parameters"):
            spec.resolve_params({"n": 1})

    @pytest.mark.parametrize(
        "scenario_id", ["synthetic-random", "synthetic-suite", "fault-injection"]
    )
    def test_generator_seed_must_be_non_negative(self, scenario_id):
        # numpy's generators take non-negative seeds only, so a negative seed
        # must fail when the params resolve, not when the scenario runs.
        spec = get_scenario(scenario_id)
        assert spec.resolve_params({"seed": 0})["seed"] == 0
        with pytest.raises(ModelError, match=">= 0"):
            spec.resolve_params({"seed": -1})

    def test_registered_family_schema_is_visible(self):
        spec = get_scenario("synthetic-random")
        assert "n_processes:int=20" in spec.schema()

    def test_duplicate_param_names_rejected_at_registration(self):
        with pytest.raises(ModelError, match="duplicate parameter names"):
            register_scenario(
                "_dup-params",
                title="t",
                params=(ScenarioParam("n", "int"), ScenarioParam("n", "int")),
            )


class TestCanonicalizePayload:
    def test_numpy_scalars_become_python_scalars(self):
        payload = canonicalize_payload(
            {"count": np.int64(3), "rate": np.float64(0.5), "flag": np.bool_(True)}
        )
        assert payload == {"count": 3, "rate": 0.5, "flag": True}
        assert type(payload["count"]) is int
        assert type(payload["rate"]) is float
        assert type(payload["flag"]) is bool

    def test_arrays_and_tuples_become_lists(self):
        payload = canonicalize_payload({"xs": np.arange(3), "pair": (1, 2)})
        assert payload == {"xs": [0, 1, 2], "pair": [1, 2]}

    def test_numeric_keys_become_strings(self):
        assert canonicalize_payload({1: "a", 2.5: "b"}) == {"1": "a", "2.5": "b"}

    def test_outcome_canonicalizes_on_construction(self):
        outcome = ScenarioOutcome(payload={"n": np.int32(7), "nested": {"x": (1,)}})
        assert outcome.payload == {"n": 7, "nested": {"x": [1]}}
        json.dumps(outcome.payload)  # must not raise

    def test_report_with_numpy_payload_round_trips(self):
        # Regression: RunReport.to_json used to raise TypeError on numpy
        # scalars reaching the results payload.
        outcome = ScenarioOutcome(
            payload={"acceptance": {np.float64(5.0): np.float64(100.0)}}
        )
        report = RunReport(
            scenario="probe", config=RunConfig(), results=outcome.payload
        )
        round_tripped = RunReport.from_json(report.to_json())
        assert round_tripped.results == {"acceptance": {"5.0": 100.0}}
