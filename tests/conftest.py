"""Shared pytest fixtures: the paper's examples, the fast-preset session, helpers."""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

import pytest

from repro.core.application import Application, Message, Process
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.experiments.motivational import (
    fig1_application,
    fig1_node_types,
    fig1_profile,
    fig3_application,
    fig3_node_type,
    fig3_profile,
)
from repro.api import RunConfig, Session
from repro.experiments.synthetic import AcceptanceExperiment
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

#: Every backend of each family by name: the production backend and the
#: reference backend it must match bit for bit.
SFP_BACKENDS = {kernel.name: kernel for kernel in (ReferenceKernel(), ArrayKernel())}
SCHED_BACKENDS = {
    kernel.name: kernel
    for kernel in (ReferenceSchedulerKernel(), FlatSchedulerKernel())
}


@contextlib.contextmanager
def production_kernels(
    sfp: Optional[SFPKernel] = None, sched: Optional[SchedulerKernel] = None
) -> Iterator[None]:
    """Run the whole stack on the given backends inside the block.

    Swaps the production instances the whole stack reads and restores
    them on exit, also when the block raises.
    """
    with pytest.MonkeyPatch.context() as patch:
        if sfp is not None:
            patch.setattr(SFP_KERNELS, "kernel", sfp)
        if sched is not None:
            patch.setattr(SCHED_KERNELS, "kernel", sched)
        yield


@pytest.fixture(scope="session")
def fast_session() -> Iterator[Session]:
    """The fast-preset API session, shared by the whole test session.

    Its experiment memoizes every (SER, HPD) setting, so the Fig. 6
    scenarios and every test that reads a fast-preset setting evaluate each
    setting once per test session.
    """
    with Session(RunConfig(preset="fast")) as session:
        yield session


@pytest.fixture(scope="session")
def fast_experiment(fast_session) -> AcceptanceExperiment:
    """The shared fast-preset experiment behind :func:`fast_session`."""
    return fast_session.experiment()


@pytest.fixture
def fig1_app() -> Application:
    """The four-process application of Fig. 1."""
    return fig1_application()


@pytest.fixture
def fig1_nodes() -> tuple[NodeType, NodeType]:
    """Node types N1 and N2 of Fig. 1."""
    return fig1_node_types()


@pytest.fixture
def fig1_prof() -> ExecutionProfile:
    """Execution profile (WCET / failure probability tables) of Fig. 1."""
    return fig1_profile()


@pytest.fixture
def fig3_app() -> Application:
    return fig3_application()


@pytest.fixture
def fig3_node() -> NodeType:
    return fig3_node_type()


@pytest.fixture
def fig3_prof() -> ExecutionProfile:
    return fig3_profile()


@pytest.fixture
def fig4a_architecture(fig1_nodes) -> Architecture:
    """The two-node architecture of Fig. 4a (both at hardening level 2)."""
    n1, n2 = fig1_nodes
    return Architecture([Node("N1", n1, hardening=2), Node("N2", n2, hardening=2)])


@pytest.fixture
def fig4a_mapping() -> ProcessMapping:
    """The Fig. 4a mapping: P1, P2 on N1; P3, P4 on N2."""
    return ProcessMapping({"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"})


@pytest.fixture
def single_process_app() -> Application:
    """A minimal single-process application used by many unit tests."""
    application = Application(
        name="single",
        deadline=100.0,
        reliability_goal=1.0 - 1e-5,
        recovery_overhead=5.0,
    )
    graph = application.new_graph("G")
    graph.add_process(Process("P1", nominal_wcet=10.0))
    return application


@pytest.fixture
def two_node_types() -> list[NodeType]:
    """Two simple node types with three hardening levels each."""
    return [
        NodeType("NA", [HVersion(1, 2.0), HVersion(2, 4.0), HVersion(3, 6.0)]),
        NodeType("NB", [HVersion(1, 3.0), HVersion(2, 6.0), HVersion(3, 9.0)], speed_factor=1.2),
    ]


def build_diamond_application(
    deadline: float = 200.0,
    reliability_goal: float = 1.0 - 1e-5,
    recovery_overhead: float = 5.0,
    message_time: float = 2.0,
) -> Application:
    """A diamond-shaped 4-process application used across tests."""
    application = Application(
        name="diamond",
        deadline=deadline,
        reliability_goal=reliability_goal,
        recovery_overhead=recovery_overhead,
    )
    graph = application.new_graph("G")
    for name, wcet in (("A", 10.0), ("B", 20.0), ("C", 15.0), ("D", 12.0)):
        graph.add_process(Process(name, nominal_wcet=wcet))
    graph.add_message(Message("mAB", "A", "B", transmission_time=message_time))
    graph.add_message(Message("mAC", "A", "C", transmission_time=message_time))
    graph.add_message(Message("mBD", "B", "D", transmission_time=message_time))
    graph.add_message(Message("mCD", "C", "D", transmission_time=message_time))
    return application


@pytest.fixture
def diamond_app() -> Application:
    return build_diamond_application()


def uniform_profile_for(
    application: Application,
    node_types: list[NodeType],
    failure_probability: float = 1e-6,
    hardening_speedup: float = 0.0,
    hardening_reduction: float = 100.0,
) -> ExecutionProfile:
    """Build a profile where every process uses its nominal WCET on every node.

    Hardening multiplies the WCET by ``1 + hardening_speedup * (h - 1)`` and
    divides the failure probability by ``hardening_reduction ** (h - 1)``.
    """
    profile = ExecutionProfile()
    for process in application.processes():
        for node_type in node_types:
            for level in node_type.hardening_levels:
                wcet = process.nominal_wcet * node_type.speed_factor
                wcet *= 1.0 + hardening_speedup * (level - 1)
                probability = failure_probability / (hardening_reduction ** (level - 1))
                profile.add_entry(process.name, node_type.name, level, wcet, probability)
    return profile
