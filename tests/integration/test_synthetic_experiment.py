"""Integration tests: the Fig. 6 synthetic experiments reproduce the paper's shape.

The absolute acceptance percentages depend on the (scaled-down) benchmark
suite, but the qualitative relationships the paper draws from Fig. 6 must
hold:

* MIN is insensitive to the hardening performance degradation (it never
  hardens anything);
* MAX degrades as HPD grows and improves as the cost cap is relaxed;
* OPT dominates both baselines everywhere;
* at the lowest error rate OPT and MIN coincide (software-only suffices),
  while at the highest error rate OPT clearly beats MIN.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.fault_model import SER_HIGH, SER_LOW, SER_MEDIUM
from repro.engine.store import DesignPointStore
from repro.experiments.synthetic import AcceptanceExperiment, ExperimentPreset


@pytest.fixture(scope="module")
def experiment(fast_experiment) -> AcceptanceExperiment:
    # The session-shared fast-preset experiment: settings the Fig. 6 tests
    # already ran are not run again.
    return fast_experiment


@pytest.fixture(scope="module")
def by_hpd(experiment):
    """% accepted at SER=1e-11, ArC=20 for two HPD values."""
    return {
        hpd: experiment.run_setting(SER_MEDIUM, hpd).acceptance_percent(20.0)
        for hpd in (5.0, 100.0)
    }


@pytest.fixture(scope="module")
def by_ser(experiment):
    """% accepted at HPD=25 %, ArC=20 for the lowest and highest SER."""
    return {
        ser: experiment.run_setting(ser, 25.0).acceptance_percent(20.0)
        for ser in (SER_LOW, SER_HIGH)
    }


class TestFig6Shape:
    def test_min_is_flat_over_hpd(self, by_hpd):
        assert by_hpd[5.0]["MIN"] == pytest.approx(by_hpd[100.0]["MIN"])

    def test_max_degrades_with_hpd(self, by_hpd):
        assert by_hpd[100.0]["MAX"] <= by_hpd[5.0]["MAX"]

    def test_opt_dominates_baselines(self, by_hpd, by_ser):
        for values in list(by_hpd.values()) + list(by_ser.values()):
            assert values["OPT"] >= values["MIN"]
            assert values["OPT"] >= values["MAX"]

    def test_min_degrades_with_error_rate(self, by_ser):
        assert by_ser[SER_HIGH]["MIN"] <= by_ser[SER_LOW]["MIN"]

    def test_opt_matches_min_at_low_error_rate(self, by_ser):
        # Software fault tolerance alone suffices at SER = 1e-12.
        assert by_ser[SER_LOW]["OPT"] >= by_ser[SER_LOW]["MIN"]

    def test_opt_clearly_beats_min_at_high_error_rate(self, by_ser):
        assert by_ser[SER_HIGH]["OPT"] > by_ser[SER_HIGH]["MIN"]


class TestCostCapBehaviour:
    def test_max_improves_with_larger_cost_cap(self, experiment):
        setting = experiment.run_setting(SER_MEDIUM, 25.0)
        tight = setting.acceptance_percent(15.0)["MAX"]
        loose = setting.acceptance_percent(25.0)["MAX"]
        assert loose >= tight

    def test_acceptance_without_cap_is_upper_bound(self, experiment):
        setting = experiment.run_setting(SER_MEDIUM, 25.0)
        capped = setting.acceptance_percent(20.0)
        uncapped = setting.acceptance_percent(None)
        for strategy in ("MIN", "MAX", "OPT"):
            assert uncapped[strategy] >= capped[strategy]

    def test_average_cost_reporting(self, experiment):
        setting = experiment.run_setting(SER_MEDIUM, 25.0)
        assert setting.average_cost("OPT") > 0.0


class TestExperimentMachinery:
    def test_settings_are_cached(self, experiment):
        first = experiment.run_setting(SER_MEDIUM, 25.0)
        second = experiment.run_setting(SER_MEDIUM, 25.0)
        assert first is second

    def test_results_cover_all_benchmarks(self, experiment):
        setting = experiment.run_setting(SER_MEDIUM, 25.0)
        for strategy in ("MIN", "MAX", "OPT"):
            assert len(setting.results[strategy]) == len(experiment.benchmarks)

    def test_context_manager_closes_the_worker_pool(self):
        with AcceptanceExperiment(preset=ExperimentPreset.smoke(), n_jobs=2) as experiment:
            experiment.run_setting(SER_MEDIUM, 5.0)
            pool = experiment._executor
            assert pool is not None
        assert experiment._executor is None
        assert experiment._finalizer is None
        with pytest.raises(RuntimeError):
            pool.submit(int)

    def test_presets_expose_paper_configuration(self):
        paper = ExperimentPreset.paper()
        assert paper.n_applications == 150
        assert paper.process_counts == (20, 40)


class TestStoreGuard:
    """Every store-backed evaluation holds the store's single-flight guard,
    serial runs included; a storeless run takes none."""

    @staticmethod
    def _spy_on_guard(monkeypatch):
        entered = []
        original = DesignPointStore.single_flight

        @contextmanager
        def spy(store, engine, *args, **kwargs):
            with original(store, engine, *args, **kwargs) as leader:
                entered.append((leader, len(list(store.directory.glob("*.lock")))))
                yield leader

        monkeypatch.setattr(DesignPointStore, "single_flight", spy)
        return entered

    def test_serial_store_backed_run_holds_the_guard(self, tmp_path, monkeypatch):
        entered = self._spy_on_guard(monkeypatch)
        preset = ExperimentPreset.smoke()
        experiment = AcceptanceExperiment(preset=preset, n_jobs=1, store_dir=tmp_path)
        setting = experiment.run_setting(SER_MEDIUM, 5.0)
        # One leader per benchmark, each holding exactly its own lock file.
        assert entered == [(True, 1)] * len(experiment.benchmarks)
        assert not list(tmp_path.glob("*.lock"))
        storeless = AcceptanceExperiment(preset=preset, n_jobs=1).run_setting(SER_MEDIUM, 5.0)
        assert setting.results == storeless.results

    def test_storeless_run_takes_no_guard(self, monkeypatch):
        entered = self._spy_on_guard(monkeypatch)
        AcceptanceExperiment(preset=ExperimentPreset.smoke(), n_jobs=1).run_setting(
            SER_MEDIUM, 5.0
        )
        assert entered == []
