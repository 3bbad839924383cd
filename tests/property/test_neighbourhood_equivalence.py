"""Bit-identity of neighbourhood evaluation, trial by trial, on every backend.

The design-space exploration scores a neighbourhood — re-execution greedy
steps, hardening trials, one-process mapping moves — one trial at a time
through the memoized scalar entry points.  The contract asserted here is
that this path is a pure function of the trial:

* the evaluation engine's exceedance memo returns, for any mix of memo hits,
  preloaded (store) entries, fresh rows and in-neighbourhood duplicates,
  exactly what the ``reference`` kernel computes, with hit/miss/disk-hit
  counters that do not depend on the backend;
* one scheduler instance scheduling a whole neighbourhood in sequence
  returns, row by row, the schedule a fresh ``reference`` scheduler returns,
  and re-scheduling an earlier trial afterwards sees no stale state.

Equality is asserted with exact ``==`` on purpose — close is not a thing
here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.application import Application, Message, Process
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.exceptions import ModelError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.engine import EvaluationEngine
from repro.experiments.motivational import fig1_application, fig1_profile
from repro.scheduling.list_scheduler import ListScheduler

from tests.conftest import SCHED_BACKENDS, SFP_BACKENDS

SFP_REFERENCE = SFP_BACKENDS["reference"]

ALL_SFP = list(SFP_BACKENDS)
ALL_SCHED = list(SCHED_BACKENDS)

PROBABILITY = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e-9, allow_nan=False),
    st.sampled_from([0.0, 1.0, 0.5, 0.1, 1e-11, 1.2e-5]),
)

#: A small tuple pool so neighbourhoods mix repeats (memo hits) with fresh
#: rows at high probability.
TUPLE_POOL = (
    (),
    (0.1,),
    (0.2, 0.3),
    (1e-5, 2e-5, 3e-5),
    (0.5, 0.5),
    (0.25, 0.125, 0.0625, 0.03125),
)

TRIAL = st.tuples(st.sampled_from(TUPLE_POOL), st.integers(min_value=0, max_value=4))


@st.composite
def sfp_neighbourhoods(draw):
    """Ragged probability rows with per-row budgets; rows may repeat."""
    n_rows = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for _ in range(n_rows):
        if rows and draw(st.booleans()) and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(
                (
                    tuple(draw(st.lists(PROBABILITY, min_size=0, max_size=10))),
                    draw(st.integers(min_value=0, max_value=6)),
                )
            )
    return rows


def _engine(kernel_name: str) -> EvaluationEngine:
    return EvaluationEngine(
        fig1_application(), fig1_profile(), kernel=SFP_BACKENDS[kernel_name]
    )


def _counters(engine: EvaluationEngine):
    return (
        engine.exceedance.hits,
        engine.exceedance.misses,
        engine.exceedance.disk_hits,
        len(engine.exceedance),
    )


@pytest.mark.parametrize("name", ALL_SFP)
@given(rows=sfp_neighbourhoods())
@settings(max_examples=150, deadline=None)
def test_memoized_exceedance_rowwise_identical(name, rows):
    """Every trial of a neighbourhood equals the reference kernel's value,
    and a duplicate trial is a memo hit that returns its first value."""
    engine = _engine(name)
    produced = [
        engine.node_exceedance(probabilities, budget)
        for probabilities, budget in rows
    ]
    expected = [
        SFP_REFERENCE.probability_exceeds(probabilities, budget)
        for probabilities, budget in rows
    ]
    assert produced == expected, f"{name} drifted for {rows!r}"
    distinct = len(set(rows))
    assert engine.exceedance.misses == distinct
    assert engine.exceedance.hits == len(rows) - distinct


@pytest.mark.parametrize("name", ALL_SFP)
@given(
    warm=st.lists(TRIAL, max_size=6),
    preloaded=st.lists(TRIAL, max_size=4),
    rows=st.lists(TRIAL, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_counters_do_not_depend_on_the_backend(name, warm, preloaded, rows):
    """Any memo-hit / store-hit / cold / duplicate mix gives the reference
    engine's values and exactly its hit, miss and disk-hit counters."""
    engine, reference = _engine(name), _engine("reference")
    for twin in (engine, reference):
        # Store hits: preloaded entries count disk_hits when touched.
        twin.exceedance.load(
            {(probabilities, budget): 0.123 for probabilities, budget in preloaded}
        )
        for probabilities, budget in warm:
            twin.node_exceedance(probabilities, budget)
    produced = [
        engine.node_exceedance(probabilities, budget)
        for probabilities, budget in rows
    ]
    expected = [
        reference.node_exceedance(probabilities, budget)
        for probabilities, budget in rows
    ]
    assert produced == expected
    assert _counters(engine) == _counters(reference)


@pytest.mark.parametrize("name", ALL_SFP)
@given(rows=st.lists(TRIAL, max_size=10))
@settings(max_examples=50, deadline=None)
def test_repeated_neighbourhood_is_all_hits(name, rows):
    engine = _engine(name)
    first = [
        engine.node_exceedance(probabilities, budget)
        for probabilities, budget in rows
    ]
    misses_after_first = engine.exceedance.misses
    hits_after_first = engine.exceedance.hits
    second = [
        engine.node_exceedance(probabilities, budget)
        for probabilities, budget in rows
    ]
    assert second == first
    assert engine.exceedance.misses == misses_after_first
    assert engine.exceedance.hits == hits_after_first + len(rows)


@pytest.mark.parametrize("name", ALL_SFP)
def test_invalid_trial_raises_and_caches_nothing(name):
    """A bad trial fails with the scalar validation error, leaves no memo
    entry behind, and the rest of the neighbourhood evaluates normally."""
    engine = _engine(name)
    assert engine.node_exceedance((0.1,), 1) == (
        SFP_REFERENCE.probability_exceeds((0.1,), 1)
    )
    with pytest.raises(ModelError):
        engine.node_exceedance((0.2,), -1)
    with pytest.raises(ValueError):
        engine.node_exceedance((1.5,), 1)
    assert len(engine.exceedance) == 1
    assert engine.node_exceedance((0.2,), 1) == (
        SFP_REFERENCE.probability_exceeds((0.2,), 1)
    )
    assert len(engine.exceedance) == 2


# ----------------------------------------------------------------------
# scheduler family
# ----------------------------------------------------------------------
NODE_NAMES = ("NA", "NB", "NC")
DURATION = st.sampled_from([1.0, 2.0, 2.5, 3.0, 7.0, 10.0])
TRANSMISSION = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def sched_neighbourhoods(draw):
    """A base DAG problem plus 1..4 sibling trials.

    The trials vary exactly what the DSE neighbourhoods vary: per-node
    hardening levels (fresh architecture copies), one-process mapping moves
    and re-execution budgets — all against one application and profile.
    """
    n_processes = draw(st.integers(min_value=1, max_value=6))
    n_nodes = draw(st.integers(min_value=2, max_value=3))
    node_names = NODE_NAMES[:n_nodes]

    application = Application(
        "neighbourhood-prop", deadline=100_000.0, reliability_goal=0.9,
        recovery_overhead=draw(st.sampled_from([0.0, 1.0, 5.0])),
    )
    graph = application.new_graph("G")
    for index in range(n_processes):
        graph.add_process(Process(f"P{index}", nominal_wcet=10.0))
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
    base_architecture = Architecture(
        [Node(name, node_type) for name, node_type in zip(node_names, node_types)]
    )
    base_mapping = ProcessMapping(
        {
            f"P{index}": draw(st.sampled_from(node_names))
            for index in range(n_processes)
        }
    )

    n_trials = draw(st.integers(min_value=1, max_value=4))
    trials = []
    for _ in range(n_trials):
        architecture = base_architecture.copy()
        for name in node_names:
            architecture.node(name).hardening = draw(st.sampled_from([1, 2]))
        mapping = base_mapping.copy()
        if draw(st.booleans()):
            process = draw(st.sampled_from(sorted(base_mapping.mapped_names())))
            mapping = mapping.moved(process, draw(st.sampled_from(node_names)))
        budgets = {
            name: draw(st.integers(min_value=0, max_value=3))
            for name in node_names
        }
        trials.append((architecture, mapping, budgets))
    return application, trials, profile


@pytest.mark.parametrize("name", ALL_SCHED)
@given(problem=sched_neighbourhoods())
@settings(max_examples=75, deadline=None)
def test_neighbourhood_schedules_rowwise_identical(name, problem):
    """One scheduler instance walking a neighbourhood reproduces, trial by
    trial, what a fresh reference scheduler computes for each trial."""
    application, trials, profile = problem
    expected = [
        ListScheduler(kernel=SCHED_BACKENDS["reference"]).schedule(
            application, architecture, mapping, profile, budgets
        )
        for architecture, mapping, budgets in trials
    ]
    scheduler = ListScheduler(kernel=SCHED_BACKENDS[name])
    produced = [
        scheduler.schedule(application, architecture, mapping, profile, budgets)
        for architecture, mapping, budgets in trials
    ]
    assert produced == expected, f"{name} drifted"
    for first, second in zip(produced, expected):
        assert first.length == second.length
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", ALL_SCHED)
@given(problem=sched_neighbourhoods())
@settings(max_examples=30, deadline=None)
def test_rescheduling_an_earlier_trial_stays_identical(name, problem):
    """Re-scheduling the first trial after the rest of the neighbourhood must
    not see per-mapping tables left behind by the later trials."""
    application, trials, profile = problem
    scheduler = ListScheduler(kernel=SCHED_BACKENDS[name])
    produced = [
        scheduler.schedule(application, architecture, mapping, profile, budgets)
        for architecture, mapping, budgets in trials
    ]
    architecture, mapping, budgets = trials[0]
    again = scheduler.schedule(application, architecture, mapping, profile, budgets)
    assert again == produced[0]
