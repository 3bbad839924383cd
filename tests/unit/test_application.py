"""Unit tests for the application model (processes, messages, task graphs)."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.application import (
    ONE_HOUR_MS,
    Application,
    Message,
    Process,
    TaskGraph,
)
from repro.core.exceptions import ModelError
from repro.generator import BenchmarkConfig, generate_benchmark

SRC = Path(__file__).resolve().parents[2] / "src"


class TestProcess:
    def test_basic_construction(self):
        process = Process("P1", nominal_wcet=12.5)
        assert process.name == "P1"
        assert process.nominal_wcet == 12.5

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            Process("")

    def test_non_positive_wcet_rejected(self):
        with pytest.raises(ValueError):
            Process("P1", nominal_wcet=0.0)

    def test_is_frozen(self):
        process = Process("P1")
        with pytest.raises(AttributeError):
            process.name = "P2"  # type: ignore[misc]


class TestMessage:
    def test_basic_construction(self):
        message = Message("m1", "P1", "P2", transmission_time=3.0)
        assert message.source == "P1"
        assert message.destination == "P2"
        assert message.transmission_time == 3.0

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            Message("m1", "P1", "P1")

    def test_negative_transmission_time_rejected(self):
        with pytest.raises(ValueError):
            Message("m1", "P1", "P2", transmission_time=-1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            Message("", "P1", "P2")


class TestTaskGraph:
    def _chain(self) -> TaskGraph:
        graph = TaskGraph("G")
        graph.add_process(Process("A", nominal_wcet=5.0))
        graph.add_process(Process("B", nominal_wcet=10.0))
        graph.add_process(Process("C", nominal_wcet=15.0))
        graph.add_message(Message("m1", "A", "B", transmission_time=1.0))
        graph.add_message(Message("m2", "B", "C", transmission_time=2.0))
        return graph

    def test_duplicate_process_rejected(self):
        graph = TaskGraph("G")
        graph.add_process(Process("A"))
        with pytest.raises(ModelError):
            graph.add_process(Process("A"))

    def test_message_with_unknown_endpoint_rejected(self):
        graph = TaskGraph("G")
        graph.add_process(Process("A"))
        with pytest.raises(ModelError):
            graph.add_message(Message("m1", "A", "missing"))

    def test_duplicate_edge_rejected(self):
        graph = self._chain()
        with pytest.raises(ModelError):
            graph.add_message(Message("dup", "A", "B"))

    def test_cycle_rejected_and_rolled_back(self):
        graph = self._chain()
        messages = graph.messages
        graph.topological_order()
        cached_orders = graph._order_cache
        with pytest.raises(ModelError, match="cycle"):
            graph.add_message(Message("back", "C", "A"))  # closes A->B->C->A
        # The rejected edge must not linger in the graph, and nothing derived
        # from the graph may have been dropped or rebuilt.
        assert graph.message_between("C", "A") is None
        assert graph.successors("C") == [] and graph.predecessors("A") == []
        assert len(graph.messages) == 2
        assert all(a is b for a, b in zip(graph.messages, messages))
        assert graph._order_cache is cached_orders

    def test_sources_and_sinks(self):
        graph = self._chain()
        assert graph.sources() == ["A"]
        assert graph.sinks() == ["C"]

    def test_topological_order_respects_dependencies(self):
        graph = self._chain()
        order = graph.topological_order()
        assert order.index("A") < order.index("B") < order.index("C")

    def test_predecessors_and_successors(self):
        graph = self._chain()
        assert graph.predecessors("B") == ["A"]
        assert graph.successors("B") == ["C"]

    def test_incoming_and_outgoing_messages(self):
        graph = self._chain()
        assert [m.name for m in graph.incoming_messages("C")] == ["m2"]
        assert [m.name for m in graph.outgoing_messages("A")] == ["m1"]

    def test_critical_path_with_messages(self):
        graph = self._chain()
        length = graph.critical_path_length(
            lambda name: graph.process(name).nominal_wcet, include_messages=True
        )
        assert length == pytest.approx(5 + 1 + 10 + 2 + 15)

    def test_critical_path_without_messages(self):
        graph = self._chain()
        length = graph.critical_path_length(
            lambda name: graph.process(name).nominal_wcet, include_messages=False
        )
        assert length == pytest.approx(30.0)

    def test_unknown_process_lookup_raises(self):
        graph = self._chain()
        with pytest.raises(ModelError):
            graph.process("missing")

    def test_len_and_contains(self):
        graph = self._chain()
        assert len(graph) == 3
        assert "A" in graph
        assert "missing" not in graph


def _structure_digests(graph: TaskGraph) -> dict:
    payload = {
        "order": graph.topological_order(),
        "generations": graph.topological_generations(),
        "adjacency": [
            [name, graph.predecessors(name), graph.successors(name)]
            for name in graph.process_names
        ],
    }
    return {
        key: hashlib.sha256(json.dumps(value).encode()).hexdigest()
        for key, value in payload.items()
    }


def _rewired_graph() -> TaskGraph:
    """A hand-built graph whose tie order depends on edge re-insertion."""
    graph = TaskGraph("rewired")
    for name in ("F", "A", "E", "B", "D", "C", "G"):
        graph.add_process(Process(name))
    edges = [("A", "C"), ("A", "B"), ("F", "B"), ("B", "D"),
             ("C", "D"), ("A", "E"), ("E", "D"), ("F", "C")]
    for index, (source, destination) in enumerate(edges):
        graph.add_message(Message(f"m{index}", source, destination))
    graph.remove_message("A", "C")
    graph.add_message(Message("r1", "A", "C"))
    graph.remove_message("B", "D")
    graph.add_message(Message("r2", "B", "D"))
    graph.remove_message("F", "B")
    graph.add_message(Message("r3", "G", "B"))
    return graph


#: sha256 of the JSON-encoded topological order, generations and per-process
#: (predecessors, successors) lists.  Recorded with the networkx-backed
#: TaskGraph (networkx 3.6.1); the tie order feeds scheduling, so it must not
#: move.
STRUCTURE_DIGESTS = {
    "n20-seed1": {
        "order": "c544f6aabc0f12cf8aa6caf75574ff3748eb92422c4d624f5c02a63b510cafd5",
        "generations": "1c76530a9024f3e66d17a1ec8e1ee52c0bdcfae1dde845c5641bd51ece83476e",
        "adjacency": "f6ad1aa02fd2394161239cc4a4077e32cb848ff896e28df7b7afc45fa5589ee1",
    },
    "n20-seed2": {
        "order": "1098cf033f0f6b8d586f10b7b291ea144ce6a8ec2e60ceff1ce58ceea3a3ba56",
        "generations": "1c76530a9024f3e66d17a1ec8e1ee52c0bdcfae1dde845c5641bd51ece83476e",
        "adjacency": "bb720af05fb8804d4f514ff41604ce9a6526216dfeafa2c42592115b1dd8f2d4",
    },
    "n20-seed3": {
        "order": "d3dd2c99eb05e0d190bab82780901a704f1ffb64a6bcf8ab4f45130647ae0b78",
        "generations": "1c76530a9024f3e66d17a1ec8e1ee52c0bdcfae1dde845c5641bd51ece83476e",
        "adjacency": "abd1af9f15fcf04cc6bf02e94d69a493c2326c6e96ae49394c83ef5fbabc3e5b",
    },
    "n200-seed1": {
        "order": "4b2cb325dd9e9e36a888e1de63a4e0ed027bf12f07620ae3710a73e953590e8e",
        "generations": "f787ee2e7a5fa4b6e0e46e3ee78dc72337d76073a9c45b16307bc15f3ad2ac40",
        "adjacency": "fbc39a808a32a9cdcf921d3b8ff93ecdd3577fc776fa384b2165b9c8b2c9d45e",
    },
    "n200-seed2": {
        "order": "6a8ba1139859121522d566750fe0af64bc598a4714e97b131024ac008d769f61",
        "generations": "5e55686d3fbc58a595885f7caf5ee73fa18a32371d8ae20fe8db6815d06f3743",
        "adjacency": "b4e99ad6e5f8863b2e40c496c383e727e8b6aee50fe89aa64a363ef047a2b461",
    },
    "n200-seed3": {
        "order": "b536a48c951c96ecf7917b98fb038e06cb04db60081c3825a92725632e189444",
        "generations": "45ef140d604ad059eafc79b5ab39ac1ec7271018450e5343c5698cb37eddf359",
        "adjacency": "d0d5d85f272b420696ff0cff818685408310812df56fdb9ee3ea43a49f98f51c",
    },
    "rewired": {
        "order": "9239a4da1bbd08e78d6af62cd4f6279030a330e4d88a48931c3bdb419ce7d8bb",
        "generations": "faa6744411f3af0e357f4eb4255be183cbf3e104927d4fa7ec1bb82fc5648eb9",
        "adjacency": "d567ed36ae95869bef109f34f92977de38cdfeed79f2a6cdd8c9cc1efbab9626",
    },
}


class TestTieOrderPinned:
    @pytest.mark.parametrize("n_processes", [20, 200])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_graph_structure(self, n_processes, seed):
        benchmark = generate_benchmark(seed, BenchmarkConfig(n_processes=n_processes))
        (graph,) = benchmark.application.graphs
        assert _structure_digests(graph) == STRUCTURE_DIGESTS[f"n{n_processes}-seed{seed}"]

    def test_rewired_graph_structure(self):
        graph = _rewired_graph()
        assert graph.topological_order() == ["F", "A", "G", "E", "C", "B", "D"]
        assert graph.successors("A") == ["B", "E", "C"]
        assert _structure_digests(graph) == STRUCTURE_DIGESTS["rewired"]


def test_api_and_serve_import_without_networkx():
    script = "import sys, repro.api, repro.serve; print('networkx' in sys.modules)"
    output = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert output == "False"


class TestApplication:
    def test_gamma_and_iterations(self):
        application = Application("app", deadline=100.0, reliability_goal=1 - 1e-5)
        assert application.gamma == pytest.approx(1e-5)
        assert application.time_unit / application.period == pytest.approx(
            ONE_HOUR_MS / 100.0
        )

    def test_period_defaults_to_deadline(self):
        application = Application("app", deadline=250.0, reliability_goal=0.999)
        assert application.period == 250.0

    def test_duplicate_graph_rejected(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        application.new_graph("G")
        with pytest.raises(ModelError):
            application.new_graph("G")

    def test_duplicate_process_across_graphs_rejected(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        first = application.new_graph("G1")
        first.add_process(Process("P1"))
        second = TaskGraph("G2")
        second.add_process(Process("P1"))
        with pytest.raises(ModelError):
            application.add_graph(second)

    def test_recovery_overhead_override(self):
        application = Application(
            "app", deadline=10.0, reliability_goal=0.99, recovery_overhead=2.0
        )
        graph = application.new_graph("G")
        graph.add_process(Process("P1"))
        graph.add_process(Process("P2"))
        application.set_recovery_overhead("P1", 0.5)
        assert application.recovery_overhead_of("P1") == 0.5
        assert application.recovery_overhead_of("P2") == 2.0

    def test_recovery_overhead_for_unknown_process_rejected(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        application.new_graph("G").add_process(Process("P1"))
        with pytest.raises(ModelError):
            application.set_recovery_overhead("missing", 1.0)

    def test_process_lookup_across_graphs(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        application.new_graph("G1").add_process(Process("P1"))
        application.new_graph("G2").add_process(Process("P2"))
        assert application.process("P2").name == "P2"
        assert application.number_of_processes() == 2

    def test_unknown_process_raises(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        application.new_graph("G")
        with pytest.raises(ModelError):
            application.process("nope")

    def test_validate_rejects_empty_application(self):
        application = Application("app", deadline=10.0, reliability_goal=0.99)
        with pytest.raises(ModelError):
            application.validate()

    def test_validate_accepts_fig1(self, fig1_app):
        fig1_app.validate()

    def test_invalid_reliability_goal_rejected(self):
        with pytest.raises(ValueError):
            Application("app", deadline=10.0, reliability_goal=1.5)

    def test_messages_listing(self, fig1_app):
        names = {message.name for message in fig1_app.messages()}
        assert names == {"m1", "m2", "m3", "m4"}


class TestRemoveMessage:
    """``remove_message`` rewires a graph that no evaluation has bound yet."""

    def _chain(self) -> TaskGraph:
        graph = TaskGraph("G")
        graph.add_process(Process("A", nominal_wcet=5.0))
        graph.add_process(Process("B", nominal_wcet=10.0))
        graph.add_process(Process("C", nominal_wcet=15.0))
        graph.add_message(Message("m1", "A", "B", transmission_time=1.0))
        graph.add_message(Message("m2", "B", "C", transmission_time=2.0))
        return graph

    def test_remove_message_unknown_edge_raises(self):
        graph = self._chain()
        with pytest.raises(ModelError, match="No message from"):
            graph.remove_message("A", "C")

    def test_removed_edge_restores_schedulability_queries(self):
        graph = self._chain()
        removed = graph.remove_message("B", "C")
        assert removed.name == "m2"
        assert graph.incoming_messages("C") == []
        assert "C" in graph.sources() or graph.predecessors("C") == []


def _unbound_context():
    """A two-graph application and its profile, before any evaluation."""
    from repro.core.profile import ExecutionProfile

    application = Application(
        "app", deadline=100.0, reliability_goal=0.99, recovery_overhead=1.0
    )
    first = application.new_graph("G1")
    for name in ("A", "B", "D"):
        first.add_process(Process(name, nominal_wcet=5.0))
    first.add_message(Message("mAB", "A", "B", transmission_time=1.0))
    second = application.new_graph("G2")
    second.add_process(Process("C", nominal_wcet=5.0))
    profile = ExecutionProfile()
    for name in ("A", "B", "C", "D"):
        profile.add_entry(name, "T", 1, 5.0, 1e-6)
    return application, profile


def _bind_with_engine(application, profile) -> None:
    from repro.engine import EvaluationEngine

    EvaluationEngine(application, profile)


def _bind_with_scheduler(application, profile) -> None:
    from repro.core.architecture import Architecture, HVersion, Node, NodeType
    from repro.core.mapping_model import ProcessMapping
    from repro.scheduling.list_scheduler import ListScheduler

    architecture = Architecture([Node("N", NodeType("T", [HVersion(1, 1.0)]))])
    mapping = ProcessMapping({name: "N" for name in application.process_names()})
    ListScheduler().worst_case_length(application, architecture, mapping, profile)


def _snapshot(application, profile) -> tuple:
    return (
        application.process_names(),
        [message.name for message in application.messages()],
        [graph.name for graph in application.graphs],
        application.recovery_overhead_of("A"),
        profile.wcet("A", "T", 1),
    )


#: Every mutator of the model: ``(id, edit, the object the error names)``.
_MUTATORS = [
    ("TaskGraph.add_process",
     lambda app, prof: app.graph("G1").add_process(Process("E")), "Task graph G1"),
    ("TaskGraph.add_message",
     lambda app, prof: app.graph("G1").add_message(Message("mBD", "B", "D")),
     "Task graph G1"),
    ("TaskGraph.remove_message",
     lambda app, prof: app.graph("G1").remove_message("A", "B"), "Task graph G1"),
    ("Application.add_graph",
     lambda app, prof: app.add_graph(TaskGraph("G3")), "Application app"),
    ("Application.new_graph", lambda app, prof: app.new_graph("G3"), "Application app"),
    ("Application.set_recovery_overhead",
     lambda app, prof: app.set_recovery_overhead("A", 9.0), "Application app"),
    ("ExecutionProfile.add_entry",
     lambda app, prof: prof.add_entry("A", "T", 1, 50.0, 1e-6), "ExecutionProfile"),
]
_MUTATOR_IDS = [entry[0] for entry in _MUTATORS]

#: Every assignable parameter of the model that feeds the context fingerprint
#: or the DSE: ``(id, owner getter, attribute, new value, the object the
#: error names)``.
_PARAMETERS = [
    ("Application.name", lambda app: app, "name", "renamed", "Application app"),
    ("Application.deadline", lambda app: app, "deadline", 50.0, "Application app"),
    ("Application.period", lambda app: app, "period", 200.0, "Application app"),
    ("Application.reliability_goal", lambda app: app, "reliability_goal", 0.5,
     "Application app"),
    ("Application.time_unit", lambda app: app, "time_unit", 1.0, "Application app"),
    ("Application.recovery_overhead", lambda app: app, "recovery_overhead", 9.0,
     "Application app"),
    ("TaskGraph.name", lambda app: app.graph("G1"), "name", "G9", "Task graph G1"),
]
_PARAMETER_IDS = [entry[0] for entry in _PARAMETERS]


class TestReadOnlyOnceBound:
    """Binding an evaluation freezes the application, its graphs and the profile.

    Every memo downstream (engine tables, the store key, the flat kernel's
    compiled tables) keys on object identity, so an in-place edit after binding must fail loudly instead of
    reusing results computed for the old content.
    """

    @pytest.mark.parametrize(
        "bind", [_bind_with_engine, _bind_with_scheduler], ids=["engine", "scheduler"]
    )
    @pytest.mark.parametrize("mutator, edit, owner", _MUTATORS, ids=_MUTATOR_IDS)
    def test_every_mutator_raises_after_binding(self, bind, mutator, edit, owner):
        # Construction is unchanged: the edit works before binding ...
        application, profile = _unbound_context()
        before = _snapshot(application, profile)
        edit(application, profile)
        assert _snapshot(application, profile) != before
        # ... and raises, naming the object and changing nothing, after it.
        application, profile = _unbound_context()
        bind(application, profile)
        with pytest.raises(ModelError, match=f"^{owner} is read-only"):
            edit(application, profile)
        assert _snapshot(application, profile) == before

    @pytest.mark.parametrize(
        "bind", [_bind_with_engine, _bind_with_scheduler], ids=["engine", "scheduler"]
    )
    @pytest.mark.parametrize(
        "parameter, owner_of, attribute, value, owner", _PARAMETERS, ids=_PARAMETER_IDS
    )
    def test_every_parameter_is_read_only_after_binding(
        self, bind, parameter, owner_of, attribute, value, owner
    ):
        # Assignable while the model is built ...
        application, _ = _unbound_context()
        setattr(owner_of(application), attribute, value)
        assert getattr(owner_of(application), attribute) == value
        # ... and read-only, naming the object and changing nothing, once bound.
        application, profile = _unbound_context()
        bind(application, profile)
        target = owner_of(application)
        before = getattr(target, attribute)
        with pytest.raises(ModelError, match=f"^{owner} is read-only"):
            setattr(target, attribute, value)
        assert getattr(target, attribute) == before

    def test_a_deadline_edit_cannot_reuse_a_stale_decision(
        self, fig1_app, fig1_prof, fig1_nodes, fig4a_mapping
    ):
        """Fig. 1 with the Fig. 4a mapping: after one optimization the old
        deadline's feasible decision is memoized, so tightening the deadline
        in place must raise instead of letting the engine return it."""
        from repro.core.architecture import Architecture, Node
        from repro.core.redundancy import RedundancyOpt
        from repro.engine import EvaluationEngine

        n1, n2 = fig1_nodes
        architecture = Architecture([Node("N1", n1), Node("N2", n2)])
        engine = EvaluationEngine(fig1_app, fig1_prof)
        decision = RedundancyOpt().optimize(engine, architecture, fig4a_mapping)
        assert decision is not None and decision.schedule_length <= fig1_app.deadline
        with pytest.raises(ModelError, match="^Application .* is read-only"):
            fig1_app.deadline = 100.0
        assert fig1_app.deadline == 360.0
