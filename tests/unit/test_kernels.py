"""Kernel backends: the production instances, no backend option, known values."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.exceptions import ModelError
from repro.core.reexecution import ReExecutionOpt
from repro.core.sfp import (
    SFPAnalysis,
    probability_exceeds,
    probability_no_fault,
    system_failure_probability,
)
from repro.engine import EvaluationEngine
from repro.experiments.motivational import fig1_application, fig1_profile
from repro.kernels import (
    SCHED_KERNELS,
    SFP_KERNELS,
    ArrayKernel,
    FlatSchedulerKernel,
    ReferenceKernel,
    ReferenceSchedulerKernel,
    SchedulerKernel,
    SFPKernel,
)
from repro.kernels.array_backend import NUMPY_MIN_WIDTH
from repro.scheduling.list_scheduler import ListScheduler

from tests.conftest import (
    SFP_BACKENDS,
    build_diamond_application,
    production_kernels,
    uniform_profile_for,
)

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def _default_kernels():
    """The SFP backend each engine-holding entry point binds.

    ``SFPAnalysis`` runs on the kernel of the fresh engine it gets when no
    engine is passed in.
    """
    application, profile = fig1_application(), fig1_profile()
    return {
        "EvaluationEngine": EvaluationEngine(application, profile).kernel,
        "SFPAnalysis": SFPAnalysis(application, None, None, profile).engine.kernel,
    }


class _RecordingScheduler(ReferenceSchedulerKernel):
    """The reference scheduler backend, counting the schedules it builds."""

    def __init__(self):
        self.calls = 0

    def build_schedule(self, problem):
        self.calls += 1
        return super().build_schedule(problem)


# ----------------------------------------------------------------------
# One production backend per family
# ----------------------------------------------------------------------
def test_production_backends_are_array_and_flat():
    assert type(SFP_KERNELS.active()) is ArrayKernel
    assert type(SCHED_KERNELS.active()) is FlatSchedulerKernel
    assert SFP_KERNELS.active() is SFP_KERNELS.active()
    assert SCHED_KERNELS.active() is SCHED_KERNELS.active()


@pytest.mark.parametrize(
    "production, oracle, base",
    [
        (ArrayKernel, ReferenceKernel, SFPKernel),
        (FlatSchedulerKernel, ReferenceSchedulerKernel, SchedulerKernel),
    ],
    ids=["sfp", "sched"],
)
def test_production_backends_do_not_inherit_from_their_oracle(production, oracle, base):
    """An oracle edit can never change production results through inheritance."""
    assert issubclass(production, base)
    assert not issubclass(production, oracle)


@pytest.mark.parametrize(
    "build",
    [
        lambda application, profile: ListScheduler(bus=object()),
        lambda application, profile: ReExecutionOpt(decimals=11),
        lambda application, profile: SFPAnalysis(application, None, None, profile, decimals=11),
        lambda application, profile: EvaluationEngine(application, profile).node_exceedance(
            (1e-5,), 1, 11
        ),
    ],
    ids=["ListScheduler-bus", "ReExecutionOpt-decimals", "SFPAnalysis-decimals", "engine-decimals"],
)
def test_bus_and_precision_are_not_options(build):
    """One FCFS bus and the paper's 11 digits: neither can be passed in."""
    with pytest.raises(TypeError):
        build(fig1_application(), fig1_profile())


def test_defaults_bind_the_exact_production_instances():
    kernels = _default_kernels()
    for entry_point in ("EvaluationEngine", "SFPAnalysis"):
        assert kernels[entry_point] is SFP_KERNELS.active(), entry_point


def test_swapped_production_instances_reach_every_default():
    """Engines bind the SFP backend when built; the list scheduler holds no
    backend and runs every call on the active one, so one built before the
    swap schedules on the swapped-in backend."""
    scheduler = ListScheduler()
    application, architecture, mapping, profile = _diamond_platform()
    sfp, sched = ReferenceKernel(), _RecordingScheduler()
    with production_kernels(sfp=sfp, sched=sched):
        kernels = _default_kernels()
        assert kernels["EvaluationEngine"] is sfp
        assert kernels["SFPAnalysis"] is sfp
        scheduler.schedule(application, architecture, mapping, profile)
    assert sched.calls == 1
    assert type(SFP_KERNELS.active()) is ArrayKernel
    assert type(SCHED_KERNELS.active()) is FlatSchedulerKernel
    scheduler.schedule(application, architecture, mapping, profile)
    assert sched.calls == 1


def test_module_functions_run_on_the_production_backend():
    class Recording(ReferenceKernel):
        def __init__(self):
            self.calls = []

        def probability_no_fault(self, failure_probabilities):
            self.calls.append("probability_no_fault")
            return super().probability_no_fault(failure_probabilities)

        def system_failure(self, per_node_exceedance):
            self.calls.append("system_failure")
            return super().system_failure(per_node_exceedance)

    recording = Recording()
    with production_kernels(sfp=recording):
        probability_no_fault([1e-5])
        probability_exceeds([1e-5], 1)
        system_failure_probability([1e-9])
    # probability_exceeds runs formula (1) first, through the same instance.
    assert recording.calls == ["probability_no_fault", "probability_no_fault", "system_failure"]


@pytest.mark.parametrize("variable", ["REPRO_SFP_KERNEL", "REPRO_SCHED_KERNEL"])
def test_former_kernel_env_vars_change_nothing_in_process(monkeypatch, variable):
    monkeypatch.setenv(variable, "reference")
    assert type(_default_kernels()["EvaluationEngine"]) is ArrayKernel
    assert type(SCHED_KERNELS.active()) is FlatSchedulerKernel


def test_former_kernel_env_vars_change_nothing_in_a_fresh_interpreter():
    env = dict(os.environ, REPRO_SFP_KERNEL="reference", REPRO_SCHED_KERNEL="reference")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    probe = (
        "from repro.kernels import SCHED_KERNELS, SFP_KERNELS; "
        "print(type(SFP_KERNELS.active()).__name__, type(SCHED_KERNELS.active()).__name__)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert completed.stdout.split() == ["ArrayKernel", "FlatSchedulerKernel"]


# ----------------------------------------------------------------------
# No entry point takes a backend: the production instance is the only path
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build",
    [
        lambda kernel: EvaluationEngine(fig1_application(), fig1_profile(), kernel=kernel),
        lambda kernel: ListScheduler(kernel=kernel),
        lambda kernel: probability_no_fault([1e-5], kernel=kernel),
        lambda kernel: probability_exceeds([1e-5], 1, kernel=kernel),
        lambda kernel: system_failure_probability([1e-9], kernel=kernel),
    ],
    ids=[
        "EvaluationEngine",
        "ListScheduler",
        "probability_no_fault",
        "probability_exceeds",
        "system_failure_probability",
    ],
)
@pytest.mark.parametrize("kernel", [ReferenceKernel(), ReferenceSchedulerKernel()], ids=["sfp", "sched"])
def test_no_entry_point_takes_a_kernel(build, kernel):
    with pytest.raises(TypeError):
        build(kernel)


# ----------------------------------------------------------------------
# Appendix A.2 worked values, per backend — small but absolute anchors.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["reference", "array"])
def test_appendix_a2_anchor_values(name):
    """The hand-computed SFP chain of the paper's Appendix A.2.

    Same inputs as ``tests/integration/test_appendix_sfp.py`` drives through
    the analysis layer; here each backend computes the primitives directly.
    """
    kernel = SFP_BACKENDS[name]
    probabilities = [1.2e-5, 1.3e-5, 1.4e-5]
    # Exact decimal-grid values produced by the reference chain; pinned as
    # literals so a drifting backend fails loudly with the observed value.
    assert kernel.probability_no_fault(probabilities) == 0.9999610005
    assert kernel.probability_exceeds(probabilities, 0) == 3.89995e-05
    exceeds_one = kernel.probability_exceeds(probabilities, 1)
    assert exceeds_one == 1.03e-09
    union = kernel.system_failure([exceeds_one, exceeds_one])
    assert union >= exceeds_one


def test_wide_inputs_take_the_numpy_row_recurrence():
    """numpy is a declared dependency, so width alone picks the DP path."""
    narrow, wide = ArrayKernel(), ArrayKernel()
    probabilities = [1e-5 * (index + 1) for index in range(NUMPY_MIN_WIDTH)]
    assert narrow.probability_exceeds(probabilities[:-1], 3) == ReferenceKernel().probability_exceeds(
        probabilities[:-1], 3
    )
    assert wide.probability_exceeds(probabilities, 3) == ReferenceKernel().probability_exceeds(
        probabilities, 3
    )
    assert narrow._np_row is None
    assert wide._np_row is not None


# ----------------------------------------------------------------------
# Scheduler kernel family
# ----------------------------------------------------------------------
def _diamond_platform():
    from repro.core.architecture import Architecture, HVersion, Node, NodeType
    from repro.core.mapping_model import ProcessMapping

    application = build_diamond_application(message_time=2.0)
    node_types = [
        NodeType("TA", [HVersion(1, 1.0)]),
        NodeType("TB", [HVersion(1, 1.0)]),
    ]
    profile = uniform_profile_for(application, node_types)
    architecture = Architecture(
        [Node("NA", node_types[0]), Node("NB", node_types[1])]
    )
    mapping = ProcessMapping({"A": "NA", "B": "NB", "C": "NA", "D": "NB"})
    return application, architecture, mapping, profile


def test_flat_kernel_sees_wcet_and_mu_edits_before_binding_and_rejects_later_ones():
    """The flat kernel caches its compiled tables on (application, profile)
    identity, so WCET/mu edits must land before the first schedule.

    Made before it, they reach the compiled tables exactly as the reference
    backend reads them.  Made after it, they raise instead of letting the
    cache replay the old floats.
    """
    application, architecture, mapping, profile = _diamond_platform()
    budgets = {"NA": 1, "NB": 1}
    # A takes 30 ms instead of 10 ms on TA, and its recovery overhead is 50.
    profile.add_entry("A", "TA", 1, 30.0, 1e-6)
    application.set_recovery_overhead("A", 50.0)

    scheduler = ListScheduler()
    schedule = scheduler.schedule(application, architecture, mapping, profile, budgets)
    with production_kernels(sched=ReferenceSchedulerKernel()):
        assert schedule == scheduler.schedule(
            application, architecture, mapping, profile, budgets
        )
    assert schedule.entry("A").finish == 30.0
    assert schedule.node_recovery_slack["NA"] == 30.0 + 50.0  # budget 1 × (t + mu)

    with pytest.raises(ModelError, match="ExecutionProfile is read-only"):
        profile.add_entry("A", "TA", 1, 10.0, 1e-6)
    with pytest.raises(ModelError, match="Application diamond is read-only"):
        application.set_recovery_overhead("A", 5.0)
    assert scheduler.schedule(application, architecture, mapping, profile, budgets) == schedule
