"""Unit tests for design-result records and acceptance accounting."""

from __future__ import annotations

import pytest

from repro.core.evaluation import DesignResult, infeasible_result
from repro.core.mapping_model import ProcessMapping
from repro.experiments.synthetic import SettingResult


def _feasible_result(cost: float = 10.0, schedule_length: float = 100.0) -> DesignResult:
    return DesignResult(
        strategy="OPT",
        application="app",
        feasible=True,
        node_types={"N1": "N1"},
        hardening={"N1": 2},
        reexecutions={"N1": 1},
        mapping=ProcessMapping({"P1": "N1"}),
        schedule=None,
        schedule_length=schedule_length,
        deadline=200.0,
        cost=cost,
        meets_reliability=True,
    )


class TestDesignResult:
    def test_accepted_when_all_criteria_hold(self):
        result = _feasible_result()
        assert result.meets_deadline
        assert result.is_accepted()
        assert result.is_accepted(max_architecture_cost=10.0)

    def test_rejected_on_cost_cap(self):
        assert not _feasible_result(cost=25.0).is_accepted(max_architecture_cost=20.0)

    def test_rejected_on_deadline(self):
        result = _feasible_result(schedule_length=500.0)
        assert not result.meets_deadline
        assert not result.is_accepted()

    def test_rejected_when_infeasible(self):
        result = infeasible_result("MIN", "app", "no solution")
        assert not result.is_accepted()
        assert result.failure_reason == "no solution"
        assert not result.feasible

    def test_rejected_when_reliability_not_met(self):
        result = DesignResult(
            strategy="MIN",
            application="app",
            feasible=True,
            schedule_length=50.0,
            deadline=100.0,
            cost=5.0,
            meets_reliability=False,
        )
        assert not result.is_accepted()

    def test_summary_mentions_strategy_and_cost(self):
        summary = _feasible_result().summary()
        assert "OPT" in summary
        assert "cost=10.0" in summary

    def test_summary_for_infeasible_result(self):
        summary = infeasible_result("MAX", "app", "too slow").summary()
        assert "infeasible" in summary
        assert "too slow" in summary


class TestAcceptancePercent:
    def test_empty_strategy_gives_zero(self):
        setting = SettingResult(ser=1e-11, hpd=5.0, results={"OPT": []})
        assert setting.acceptance_percent(None) == {"OPT": 0.0}

    def test_mixed_results(self):
        results = [
            _feasible_result(cost=10.0),
            _feasible_result(cost=30.0),
            infeasible_result("OPT", "x", "nope"),
        ]
        setting = SettingResult(ser=1e-11, hpd=5.0, results={"OPT": results})
        assert setting.acceptance_percent(None)["OPT"] == pytest.approx(200 / 3)
        assert setting.acceptance_percent(20.0)["OPT"] == pytest.approx(100 / 3)
