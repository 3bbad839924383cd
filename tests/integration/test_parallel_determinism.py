"""Determinism of parallel sweeps: ``n_jobs=N`` ≡ serial, bit for bit.

The experiment harness promises that worker processes are an implementation
detail: same seed, same preset → identical :class:`DesignResult`s, identical
acceptance percentages and identical rendered (golden) output, regardless of
``n_jobs``.  Worker processes inherit no engine state (caches are per
process) and resolve their kernel backend independently, so this also guards
the kernel registry's behaviour under ``ProcessPoolExecutor`` pickling.
"""

from __future__ import annotations

import pytest

from repro.core.fault_model import SER_MEDIUM
from repro.experiments.synthetic import (
    AcceptanceExperiment,
    ExperimentPreset,
    render_sweep,
)

HPD_VALUES = (5.0, 100.0)


def _run(n_jobs, store_dir=None):
    experiment = AcceptanceExperiment(
        preset=ExperimentPreset.smoke(), n_jobs=n_jobs, store_dir=store_dir
    )
    settings = [experiment.run_setting(SER_MEDIUM, hpd) for hpd in HPD_VALUES]
    sweep = {setting.hpd: setting.acceptance_percent(20.0) for setting in settings}
    return sweep, settings


@pytest.fixture(scope="module")
def serial():
    return _run(n_jobs=1)


@pytest.fixture(scope="module")
def parallel():
    return _run(n_jobs=2)


def test_acceptance_percentages_identical(serial, parallel):
    assert serial[0] == parallel[0]


def test_design_results_identical(serial, parallel):
    """Every field of every DesignResult matches."""
    for setting_serial, setting_parallel in zip(serial[1], parallel[1]):
        assert setting_serial.results == setting_parallel.results


def test_rendered_golden_output_identical(serial, parallel):
    title = "determinism check"
    assert render_sweep(serial[0], title) == render_sweep(parallel[0], title)


def test_engine_counters_identical(serial, parallel):
    """Search effort, computed points and hit/miss totals do not depend on
    worker processes: each application's engine lives in one worker."""
    for setting_serial, setting_parallel in zip(serial[1], parallel[1]):
        assert setting_parallel.counters == setting_serial.counters


def test_parallel_run_with_store_stays_identical(tmp_path, serial):
    """The persistent store must not perturb parallel results either; a
    second warm parallel run must hit the disk cache and still agree.  Every
    store-backed evaluation holds the store's single-flight lock, and none
    may outlive its run."""
    cold = _run(n_jobs=2, store_dir=tmp_path)
    assert cold[0] == serial[0]
    warm = _run(n_jobs=2, store_dir=tmp_path)
    assert warm[0] == serial[0]
    for setting in warm[1]:
        assert setting.counters["disk_entries_loaded"] > 0
        assert setting.counters["disk_hits"] > 0
        assert setting.counters["misses"] == 0
    assert not list(tmp_path.glob("*.lock"))
