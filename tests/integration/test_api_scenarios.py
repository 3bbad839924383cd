"""Every registered scenario runs through the API and round-trips its report.

Covers the satellite contract: ``RunReport.to_json()``/``from_json()`` is
lossless for all registered scenarios at the fast preset.  One module-scoped
report cache keeps each scenario to a single execution.
"""

from __future__ import annotations

import json

import pytest

from repro import api

SCENARIO_IDS = [spec.scenario_id for spec in api.list_scenarios()]


@pytest.fixture(scope="module")
def reports():
    """One fast-preset report per registered scenario (computed lazily)."""
    cache = {}

    def get(scenario_id: str) -> api.RunReport:
        if scenario_id not in cache:
            cache[scenario_id] = api.run(
                scenario_id, api.RunConfig(preset="fast")
            )
        return cache[scenario_id]

    return get


def test_all_builtin_scenarios_are_registered():
    assert {"motivational", "fig6a", "fig6b", "fig6c", "fig6d", "cruise-control"} <= set(
        SCENARIO_IDS
    )


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_report_json_round_trip_is_lossless(reports, scenario_id):
    report = reports(scenario_id)
    serialized = report.to_json()
    recovered = api.RunReport.from_json(serialized)
    assert recovered == report
    assert recovered.to_json() == serialized


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_report_carries_the_structured_fields(reports, scenario_id):
    report = reports(scenario_id)
    assert report.scenario == scenario_id
    assert report.config.preset == "fast"
    assert report.timings["wall_clock_seconds"] >= 0.0
    assert {"hits", "misses", "points_computed"} <= set(report.cache)
    assert report.results  # non-empty payload
    assert report.text  # human-readable rendering exists


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_payloads_are_json_native(reports, scenario_id):
    """No tuples / numeric keys survive in payloads (round-trip guarantee)."""
    results = reports(scenario_id).results
    assert json.loads(json.dumps(results)) == results


def test_unknown_scenario_is_rejected():
    from repro.core.exceptions import ModelError

    with pytest.raises(ModelError, match="Unknown scenario"):
        api.run("fig7-does-not-exist")
