"""A finished technology setting keeps none of its execution profiles alive.

Every (SER, HPD) setting builds one execution profile per benchmark, and the
experiment keeps each setting's results for the rest of the session.  A
per-object memo that holds a profile (for instance on a mapping or a
decision that the results keep) would keep every setting's profile alive
through those results, and the sweep's resident memory would grow with the
number of settings.
"""

from __future__ import annotations

import gc
import weakref

from repro.core.fault_model import SER_MEDIUM
from repro.experiments import synthetic
from repro.experiments.synthetic import AcceptanceExperiment, ExperimentPreset
from repro.kernels import FlatSchedulerKernel

from tests.conftest import production_kernels


def test_run_setting_releases_every_profile(monkeypatch):
    profiles = []
    original = synthetic.build_platform

    def capture(*args, **kwargs):
        node_types, profile = original(*args, **kwargs)
        profiles.append(weakref.ref(profile))
        return node_types, profile

    monkeypatch.setattr(synthetic, "build_platform", capture)
    experiment = AcceptanceExperiment(preset=ExperimentPreset.smoke(), n_jobs=1)
    # A fresh scheduler kernel for the run: a kernel keeps the last
    # (application, profile) pair it compiled until another one arrives, so
    # the production instance would hold the last benchmark's profile.
    with production_kernels(sched=FlatSchedulerKernel()):
        setting = experiment.run_setting(SER_MEDIUM, 5.0)
    gc.collect()
    assert len(profiles) == len(experiment.benchmarks) > 0
    assert [ref for ref in profiles if ref() is not None] == []
    # The results themselves are kept.
    assert experiment.run_setting(SER_MEDIUM, 5.0) is setting
    assert all(setting.results.values())
