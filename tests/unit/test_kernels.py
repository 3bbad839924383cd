"""Kernel registry behaviour: selection precedence, errors, known values."""

from __future__ import annotations

import pytest

from repro.core.exceptions import ModelError
from repro.kernels import (
    AUTO,
    KERNEL_ENV_VAR,
    ArrayKernel,
    ReferenceKernel,
    SFPKernel,
    active_kernel,
    get_kernel,
    kernel_names,
    resolve_kernel,
    use_kernel,
)
from repro.kernels import registry as registry_module

@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Each test starts with no process default and no env override.

    Restoration of the pre-test selection is handled by the suite-wide
    ``_kernel_selection_guard`` autouse fixture in ``tests/conftest.py``.
    """
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    registry_module.SFP_KERNELS.set_default(None)
    yield


def test_both_builtin_backends_registered():
    names = kernel_names()
    assert "reference" in names
    assert "array" in names


def test_auto_prefers_the_array_backend():
    # array has the higher priority and is always available (numpy optional).
    assert kernel_names(available_only=True)[0] == "array"
    assert isinstance(get_kernel(AUTO), ArrayKernel)
    assert isinstance(active_kernel(), ArrayKernel)


def test_get_kernel_returns_singletons():
    assert get_kernel("array") is get_kernel("array")
    assert get_kernel("reference") is get_kernel("reference")


def test_unknown_kernel_is_a_model_error():
    with pytest.raises(ModelError, match="Unknown SFP kernel"):
        get_kernel("simd-on-a-toaster")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
    assert isinstance(active_kernel(), ReferenceKernel)


def test_use_kernel_overrides_env(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
    with use_kernel(sfp="array") as (picked, _):
        assert isinstance(picked, ArrayKernel)
        assert isinstance(active_kernel(), ArrayKernel)
    assert isinstance(active_kernel(), ReferenceKernel)


def test_use_kernel_validates_before_committing(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
    with pytest.raises(ModelError):
        with use_kernel(sfp="no-such-backend"):
            pass
    # The failed selection must not have clobbered the env-var choice.
    assert isinstance(active_kernel(), ReferenceKernel)


def test_registries_hold_exactly_the_scalar_backends():
    assert set(kernel_names()) == {"reference", "array"}
    assert set(registry_module.sched_kernel_names()) == {"reference", "flat"}
    with pytest.raises(ModelError, match="Unknown SFP kernel 'batch'"):
        get_kernel("batch")
    with pytest.raises(ModelError, match="Unknown scheduler kernel 'batch'"):
        registry_module.get_sched_kernel("batch")
    with pytest.raises(ModelError):
        with use_kernel(sfp="batch"):
            pass
    with pytest.raises(ModelError):
        with use_kernel(sched="batch"):
            pass


def test_resolve_kernel_accepts_instance_name_and_none():
    instance = ArrayKernel()
    assert resolve_kernel(instance) is instance
    assert isinstance(resolve_kernel("reference"), ReferenceKernel)
    assert isinstance(resolve_kernel(None), SFPKernel)


def test_register_rejects_duplicate_names():
    class Impostor(SFPKernel):
        name = "reference"

    with pytest.raises(ModelError, match="already registered"):
        registry_module.register_kernel(Impostor)


def test_register_rejects_anonymous_and_auto_names():
    class Nameless(SFPKernel):
        name = ""

    class TakesAuto(SFPKernel):
        name = AUTO

    with pytest.raises(ModelError):
        registry_module.register_kernel(Nameless)
    with pytest.raises(ModelError):
        registry_module.register_kernel(TakesAuto)


def test_unavailable_backend_skipped_by_auto_and_rejected_explicitly(monkeypatch):
    class Phantom(SFPKernel):
        name = "phantom-test-backend"
        priority = 10_000  # would win auto selection if it were available

        @classmethod
        def is_available(cls):
            return False

    monkeypatch.setitem(registry_module.SFP_KERNELS._classes, Phantom.name, Phantom)
    assert Phantom.name not in kernel_names(available_only=True)
    assert get_kernel(AUTO).name != Phantom.name
    with pytest.raises(ModelError, match="not available"):
        get_kernel(Phantom.name)


# ----------------------------------------------------------------------
# Appendix A.2 worked values, per backend — small but absolute anchors.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["reference", "array"])
def test_appendix_a2_anchor_values(name):
    """The hand-computed SFP chain of the paper's Appendix A.2.

    Same inputs as ``tests/integration/test_appendix_sfp.py`` drives through
    the analysis layer; here each backend computes the primitives directly.
    """
    kernel = get_kernel(name)
    probabilities = [1.2e-5, 1.3e-5, 1.4e-5]
    # Exact decimal-grid values produced by the reference chain; pinned as
    # literals so a drifting backend fails loudly with the observed value.
    assert kernel.probability_no_fault(probabilities) == 0.9999610005
    assert kernel.probability_exceeds(probabilities, 0) == 3.89995e-05
    exceeds_one = kernel.probability_exceeds(probabilities, 1)
    assert exceeds_one == 1.03e-09
    union = kernel.system_failure([exceeds_one, exceeds_one])
    assert union >= exceeds_one


# ----------------------------------------------------------------------
# Scheduler kernel family: same registry machinery, ``sched`` infix.
# ----------------------------------------------------------------------
from repro.comm.bus import Bus, SimpleBus  # noqa: E402
from repro.kernels import (  # noqa: E402
    SCHED_KERNEL_ENV_VAR,
    FlatSchedulerKernel,
    ReferenceSchedulerKernel,
    SchedulerKernel,
    active_sched_kernel,
    get_sched_kernel,
    resolve_sched_kernel,
    sched_kernel_names,
)


@pytest.fixture(autouse=True)
def _clean_sched_selection(monkeypatch):
    """Each test starts with no scheduler default and no env override."""
    monkeypatch.delenv(SCHED_KERNEL_ENV_VAR, raising=False)
    registry_module.SCHED_KERNELS.set_default(None)
    yield


def test_scheduler_backends_registered():
    names = sched_kernel_names()
    assert "reference" in names
    assert "flat" in names


def test_auto_prefers_the_flat_scheduler_backend():
    assert sched_kernel_names(available_only=True)[0] == "flat"
    assert isinstance(get_sched_kernel(AUTO), FlatSchedulerKernel)
    assert isinstance(active_sched_kernel(), FlatSchedulerKernel)


def test_sched_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(SCHED_KERNEL_ENV_VAR, "reference")
    assert isinstance(active_sched_kernel(), ReferenceSchedulerKernel)


def test_use_kernel_overrides_sched_env(monkeypatch):
    monkeypatch.setenv(SCHED_KERNEL_ENV_VAR, "reference")
    with use_kernel(sched="flat") as (_, picked):
        assert isinstance(picked, FlatSchedulerKernel)
        assert isinstance(active_sched_kernel(), FlatSchedulerKernel)
    assert isinstance(active_sched_kernel(), ReferenceSchedulerKernel)


def test_unknown_sched_kernel_names_its_family():
    with pytest.raises(ModelError, match="Unknown scheduler kernel"):
        get_sched_kernel("gpu-on-a-toaster")


def test_families_do_not_share_a_namespace():
    # "array" is an SFP kernel, "flat" a scheduler kernel; neither resolves
    # in the other family even though both registries hold a "reference".
    with pytest.raises(ModelError):
        get_sched_kernel("array")
    with pytest.raises(ModelError):
        get_kernel("flat")
    assert type(get_kernel("reference")) is ReferenceKernel
    assert type(get_sched_kernel("reference")) is ReferenceSchedulerKernel


def test_resolve_sched_kernel_accepts_instance_name_and_none():
    instance = FlatSchedulerKernel()
    assert resolve_sched_kernel(instance) is instance
    assert isinstance(resolve_sched_kernel("reference"), ReferenceSchedulerKernel)
    assert isinstance(resolve_sched_kernel(None), SchedulerKernel)


def test_sched_register_rejects_duplicate_names():
    class Impostor(SchedulerKernel):
        name = "reference"

    with pytest.raises(ModelError, match="already registered"):
        registry_module.register_sched_kernel(Impostor)


def test_flat_kernel_falls_back_to_reference_for_unknown_bus():
    """A Bus subclass with a custom policy must get the reference path."""

    class EveryOtherSlotBus(SimpleBus):
        """Doubles every window's start — not reproducible from flat tables."""

        def _find_window(self, sender_node, earliest_start, duration):
            return 2.0 * super()._find_window(sender_node, earliest_start, duration)

    from tests.conftest import build_diamond_application, uniform_profile_for
    from repro.core.architecture import Architecture, HVersion, Node, NodeType
    from repro.core.mapping_model import ProcessMapping
    from repro.scheduling.list_scheduler import ListScheduler

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

    flat = ListScheduler(bus=EveryOtherSlotBus(), kernel="flat").schedule(
        application, architecture, mapping, profile
    )
    reference = ListScheduler(bus=EveryOtherSlotBus(), kernel="reference").schedule(
        application, architecture, mapping, profile
    )
    assert flat == reference
    # The custom policy actually fired (windows were doubled), so the flat
    # backend cannot have used its own SimpleBus gap search.
    assert flat.message_entry("mAB").start == 2.0 * 10.0


def test_flat_kernel_recompiles_after_in_place_profile_and_overhead_edits():
    """In-place WCET/mu edits must invalidate the flat kernel's compiled tables.

    Regression: the compiled cache was guarded by (structure, profile)
    identity only, so overwriting a profile entry or a recovery overhead
    replayed stale snapshot floats while the reference backend read the live
    objects.
    """
    from tests.conftest import build_diamond_application, uniform_profile_for
    from repro.core.architecture import Architecture, HVersion, Node, NodeType
    from repro.core.mapping_model import ProcessMapping
    from repro.scheduling.list_scheduler import ListScheduler

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
    budgets = {"NA": 1, "NB": 1}

    flat = ListScheduler(kernel="flat")
    reference = ListScheduler(kernel="reference")
    assert flat.schedule(
        application, architecture, mapping, profile, budgets
    ) == reference.schedule(application, architecture, mapping, profile, budgets)

    # Overwrite one WCET in place: A now takes 30 ms instead of 10 ms on TA.
    profile.add_entry("A", "TA", 1, 30.0, 1e-6)
    after_wcet = flat.schedule(application, architecture, mapping, profile, budgets)
    assert after_wcet == reference.schedule(
        application, architecture, mapping, profile, budgets
    )
    assert after_wcet.entry("A").finish == 30.0

    # Edit a recovery overhead in place: slack must follow the live value.
    application.set_recovery_overhead("A", 50.0)
    after_mu = flat.schedule(application, architecture, mapping, profile, budgets)
    assert after_mu == reference.schedule(
        application, architecture, mapping, profile, budgets
    )
    assert after_mu.node_recovery_slack["NA"] == 30.0 + 50.0  # budget 1 × (t + mu)


# ----------------------------------------------------------------------
# Scoped selection: use_kernel
# ----------------------------------------------------------------------


class TestUseKernel:
    def test_scopes_both_families_and_restores(self):
        with use_kernel(sfp="reference", sched="reference") as (sfp, sched):
            assert isinstance(sfp, ReferenceKernel)
            assert isinstance(sched, ReferenceSchedulerKernel)
            assert isinstance(active_kernel(), ReferenceKernel)
            assert isinstance(active_sched_kernel(), ReferenceSchedulerKernel)
        assert isinstance(active_kernel(), ArrayKernel)
        assert isinstance(active_sched_kernel(), FlatSchedulerKernel)

    def test_none_leaves_ambient_selection_untouched(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        with use_kernel(sched="flat") as (sfp, sched):
            assert isinstance(sfp, ReferenceKernel)  # env still decides SFP
            assert isinstance(sched, FlatSchedulerKernel)

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with use_kernel(sfp="reference", sched="reference"):
                assert isinstance(active_kernel(), ReferenceKernel)
                raise RuntimeError("boom")
        assert isinstance(active_kernel(), ArrayKernel)
        assert isinstance(active_sched_kernel(), FlatSchedulerKernel)

    def test_invalid_name_leaves_state_untouched(self):
        with pytest.raises(ModelError):
            with use_kernel(sfp="no-such-backend"):
                pytest.fail("the scope body must not run")  # pragma: no cover
        assert isinstance(active_kernel(), ArrayKernel)

    def test_accepts_registry_singleton_instances(self):
        with use_kernel(sfp=get_kernel("reference")) as (sfp, _):
            assert isinstance(sfp, ReferenceKernel)

    def test_rejects_foreign_instances(self):
        # A separately constructed object would be silently swapped for the
        # registry singleton of the same name; that must fail instead.
        with pytest.raises(ModelError, match="registry-singleton"):
            with use_kernel(sfp=ReferenceKernel()):
                pytest.fail("the scope body must not run")  # pragma: no cover
        assert isinstance(active_kernel(), ArrayKernel)

    def test_nested_scopes_unwind_in_order(self):
        with use_kernel(sfp="reference"):
            with use_kernel(sfp="array"):
                assert isinstance(active_kernel(), ArrayKernel)
            assert isinstance(active_kernel(), ReferenceKernel)
        assert isinstance(active_kernel(), ArrayKernel)
