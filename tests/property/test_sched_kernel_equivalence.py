"""Bit-identity property suite for the scheduler kernel backends.

The production ``flat`` backend must return, for every input, a
``Schedule`` that is value-equal (``Schedule.__eq__`` — every process window,
message window, recovery-slack reservation, budget and hardening level, down
to the last float bit) to the one the ``reference`` backend (its test
oracle) produces.  This is the contract that keeps memoized/persisted design
points valid whichever backend computed them.

Hypothesis drives randomized problems through both backends:

* random DAGs (not just chains) with random WCETs, transmission times and
  recovery overheads, mapped arbitrarily onto 2-3 nodes with mixed hardening
  levels — so layers contain real priority ties, intra- and inter-node
  messages coexist, and some nodes may be left empty;
* zero-duration messages among positive ones (they disable the flat
  backend's sorted-finish scan shortcut);
* shared recovery slack with budgets 0..3 per node.

The length-only entry point ``worst_case_length`` is held to the same
contract: it must return exactly the ``length`` of the reference schedule.

The generated problems stop at 9 processes, so a deterministic dense-bus
section drives generated applications of 400 and 800 processes, mapped
round-robin, through both backends: over a thousand back-to-back bus
windows, with and without zero-duration messages, exercise the flat gap
walk past its bisect.

Equality is asserted with exact ``==`` on purpose — close is not a thing
here.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.application import Application, Message, Process
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.generator.benchmark import BenchmarkConfig, build_platform, generate_benchmark
from repro.kernels.sched_reference import ReferenceSchedulerKernel
from repro.scheduling.list_scheduler import ListScheduler

from tests.conftest import SCHED_BACKENDS, production_kernels

REFERENCE = SCHED_BACKENDS["reference"]

#: All non-reference backends (the property is trivially true for reference).
OTHER_KERNELS = [
    name for name in SCHED_BACKENDS if name != "reference"
]

NODE_NAMES = ("NA", "NB", "NC")

#: WCETs/durations drawn from a small float pool on purpose: repeated values
#: provoke priority ties (resolved by process name) and same-start windows,
#: where ordering bugs between backends would otherwise hide.
DURATION = st.sampled_from([1.0, 2.0, 2.5, 3.0, 7.0, 10.0, 12.5])
TRANSMISSION = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def dag_problems(draw):
    """A random scheduling problem: DAG, platform, mapping, budgets."""
    n_processes = draw(st.integers(min_value=1, max_value=9))
    n_nodes = draw(st.integers(min_value=2, max_value=3))
    node_names = NODE_NAMES[:n_nodes]

    application = Application(
        "prop", deadline=100_000.0, reliability_goal=0.9,
        recovery_overhead=draw(st.sampled_from([0.0, 1.0, 5.0])),
    )
    graph = application.new_graph("G")
    for index in range(n_processes):
        graph.add_process(Process(f"P{index}", nominal_wcet=10.0))
    # Random DAG: any (i, j) with i < j may carry a message, so generated
    # layers range from one wide layer (no edges) to a single chain.
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_processes - 1),
                st.integers(min_value=0, max_value=n_processes - 1),
            ).filter(lambda pair: pair[0] < pair[1]),
            unique=True,
            max_size=2 * n_processes,
        )
    )
    for source, destination in edges:
        graph.add_message(
            Message(
                f"m{source}_{destination}",
                f"P{source}",
                f"P{destination}",
                transmission_time=draw(TRANSMISSION),
            )
        )

    node_types = [
        NodeType(f"T{name}", [HVersion(1, 1.0), HVersion(2, 2.0)])
        for name in node_names
    ]
    profile = ExecutionProfile()
    for index in range(n_processes):
        for node_type in node_types:
            for level in (1, 2):
                profile.add_entry(
                    f"P{index}", node_type.name, level, draw(DURATION), 1e-6
                )
    architecture = Architecture(
        [
            Node(name, node_type, hardening=draw(st.sampled_from([1, 2])))
            for name, node_type in zip(node_names, node_types)
        ]
    )
    mapping = ProcessMapping(
        {
            f"P{index}": draw(st.sampled_from(node_names))
            for index in range(n_processes)
        }
    )
    budgets = {
        name: draw(st.integers(min_value=0, max_value=3)) for name in node_names
    }
    return application, architecture, mapping, profile, budgets


def _schedule_with(kernel_name, problem):
    """The schedule one backend builds for ``problem``."""
    application, architecture, mapping, profile, budgets = problem
    with production_kernels(sched=SCHED_BACKENDS[kernel_name]):
        return ListScheduler().schedule(application, architecture, mapping, profile, budgets)


@pytest.mark.parametrize("name", OTHER_KERNELS)
@given(problem=dag_problems())
@settings(max_examples=150, deadline=None)
def test_schedules_value_equal_across_backends(name, problem):
    expected = _schedule_with("reference", problem)
    produced = _schedule_with(name, problem)
    assert produced == expected, (
        f"{name} drifted from reference:\n"
        f"produced:\n{produced.as_gantt_text()}\n"
        f"expected:\n{expected.as_gantt_text()}"
    )
    # Equal schedules must agree on every derived quantity bit for bit.
    assert produced.length == expected.length
    assert produced.fault_free_length == expected.fault_free_length
    assert hash(produced) == hash(expected)


@pytest.mark.parametrize("name", OTHER_KERNELS)
@given(problem=dag_problems())
@settings(max_examples=40, deadline=None)
def test_backends_validate_and_reuse_structures(name, problem):
    """Back-to-back runs on one backend instance stay identical (memo reuse)."""
    application, architecture, mapping, profile, budgets = problem
    scheduler = ListScheduler()
    with production_kernels(sched=SCHED_BACKENDS[name]):
        first = scheduler.schedule(application, architecture, mapping, profile, budgets)
        first.validate()
        second = scheduler.schedule(application, architecture, mapping, profile, budgets)
    assert second == first


def _length_with(kernel_name, problem):
    """``worst_case_length`` of one backend for ``problem``."""
    application, architecture, mapping, profile, budgets = problem
    with production_kernels(sched=SCHED_BACKENDS[kernel_name]):
        return ListScheduler().worst_case_length(
            application, architecture, mapping, profile, budgets
        )


@pytest.mark.parametrize("name", OTHER_KERNELS)
@given(problem=dag_problems())
@settings(max_examples=150, deadline=None)
def test_worst_case_length_equals_the_reference_schedule_length(name, problem):
    expected = _schedule_with("reference", problem)
    assert _length_with(name, problem) == expected.length


def test_reference_is_the_reference():
    """The ``reference`` oracle is the per-object specification."""
    assert type(REFERENCE) is ReferenceSchedulerKernel


# ----------------------------------------------------------------------
# Deterministic dense-bus cases.
# ----------------------------------------------------------------------
def _dense_problem(n_processes, zero_every=None):
    """A generated application mapped round-robin onto its node types.

    Round-robin sends most edges over the bus, so the bus fills
    with back-to-back windows (1 341 messages at n=400).  With
    ``zero_every=k`` every k-th message carries no data, so zero-duration
    windows land among them.
    """
    benchmark = generate_benchmark(7, BenchmarkConfig(n_processes=n_processes))
    node_types, profile = build_platform(
        benchmark, ser_per_cycle=1e-11, hardening_performance_degradation=0.05
    )
    application = benchmark.application
    if zero_every is not None:
        for graph in application.graphs:
            for message in graph.messages[::zero_every]:
                graph.remove_message(message.source, message.destination)
                graph.add_message(replace(message, transmission_time=0.0))
    architecture = Architecture([Node(node_type.name, node_type) for node_type in node_types])
    nodes = architecture.node_names
    mapping = ProcessMapping(
        {
            name: nodes[index % len(nodes)]
            for index, name in enumerate(application.process_names())
        }
    )
    budgets = {name: index % 3 for index, name in enumerate(nodes)}
    return application, architecture, mapping, profile, budgets


@pytest.mark.parametrize("name", OTHER_KERNELS)
@pytest.mark.parametrize("zero_every", [None, 5], ids=["positive", "zero-durations"])
@pytest.mark.parametrize("n_processes", [400, 800])
def test_dense_bus_schedules_equal_the_reference(name, n_processes, zero_every):
    problem = _dense_problem(n_processes, zero_every)
    expected = _schedule_with("reference", problem)
    produced = _schedule_with(name, problem)
    assert len(expected.messages) > n_processes
    if zero_every is not None:
        assert any(entry.duration == 0.0 for entry in expected.messages)
    assert produced == expected
    assert _length_with(name, problem) == expected.length
