"""Session: store/engine construction, reports, no kernel state."""

from __future__ import annotations

import pytest

from repro.api import REPORT_SCHEMA_VERSION, RunConfig, RunReport, Session
from repro.api.registry import ScenarioOutcome, register_scenario
from repro.core.exceptions import ModelError
from repro.kernels import SCHED_KERNELS, SFP_KERNELS


class TestNoKernelScope:
    def test_with_block_leaves_the_production_backends_alone(self):
        sfp, sched = SFP_KERNELS.active(), SCHED_KERNELS.active()
        with Session(RunConfig()):
            assert SFP_KERNELS.active() is sfp
            assert SCHED_KERNELS.active() is sched
        assert SFP_KERNELS.active() is sfp
        assert SCHED_KERNELS.active() is sched

    def test_started_event_and_report_carry_no_kernel_fields(self):
        events = []

        @register_scenario("_probe-kernels", title="test probe")
        def _probe(session, params):
            return ScenarioOutcome(payload={})

        try:
            report = Session(RunConfig(), progress=events.append).run("_probe-kernels")
        finally:
            # Keep the global registry clean for other tests (and reruns).
            from repro.api.registry import _SCENARIOS

            _SCENARIOS.pop("_probe-kernels", None)
        assert events[0] == {"event": "scenario_started", "scenario": "_probe-kernels", "params": {}}
        assert not hasattr(report, "kernels")
        assert set(report.to_dict()) == {
            "schema", "scenario", "config", "results", "params", "cache", "timings", "text",
        }


class TestContextManager:
    def test_exit_releases_the_experiment_pool_also_when_the_body_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            with Session(RunConfig(preset="smoke", jobs=2)) as session:
                experiment = session.experiment()
                experiment._pool()
                assert experiment._executor is not None
                raise RuntimeError("boom")
        assert experiment._executor is None


class TestReportSchema:
    def test_reports_of_the_kernel_selection_layout_are_rejected(self):
        """Schema 1 reports carried kernel fields in the config and a
        ``kernels`` map; reading one fails on the schema, not on a field."""
        old = RunReport("fig6a", RunConfig(), {}).to_dict()
        old["schema"] = 1
        old["config"].update(sfp_kernel="array", sched_kernel="flat")
        old["kernels"] = {"sfp": "array", "sched": "flat"}
        with pytest.raises(ModelError, match="Unsupported RunReport schema 1"):
            RunReport.from_dict(old)
        assert REPORT_SCHEMA_VERSION == 2


class TestOwnedResources:
    def test_experiment_is_shared_within_a_session(self):
        session = Session(RunConfig(preset="smoke"))
        assert session.experiment() is session.experiment()
        assert session.experiment().preset.n_applications == 2

    def test_cache_report_is_zeroed_before_any_experiment(self):
        report = Session().cache_report()
        assert report == {
            "hits": 0,
            "misses": 0,
            "search_evaluations": 0,
            "points_computed": 0,
            "hit_rate": 0.0,
            "disk_hits": 0,
            "disk_entries_loaded": 0,
        }

    def test_cache_report_sums_scenario_counters_and_derives_the_hit_rate(self):
        session = Session()
        # A passed-in hit_rate is derived, never summed.
        session.add_cache_counters({"hits": 3, "misses": 1, "points_computed": 2, "hit_rate": 0.75})
        session.add_cache_counters({"hits": 1, "misses": 3, "disk_hits": 4})
        assert session.cache_report() == {
            "hits": 4,
            "misses": 4,
            "search_evaluations": 0,
            "points_computed": 2,
            "hit_rate": 0.5,
            "disk_hits": 4,
            "disk_entries_loaded": 0,
        }


class TestRun:
    def test_unknown_scenario_fails_with_known_list(self):
        with pytest.raises(ModelError, match="Unknown scenario"):
            Session().run("fig9z")

    def test_one_shot_run_writes_the_report_to_output(self, tmp_path):
        from repro import api

        output = tmp_path / "report.json"
        config = RunConfig(preset="smoke", output=output)
        report = api.run("fig6a", config)
        assert output.exists()
        assert RunReport.from_json(output.read_text(encoding="utf-8")) == report

    def test_session_run_does_not_write_output(self, tmp_path):
        # Multi-scenario sessions must not silently overwrite reports; only
        # the one-shot api.run persists to config.output.
        output = tmp_path / "report.json"
        Session(RunConfig(preset="smoke", output=output)).run("fig6a")
        assert not output.exists()
