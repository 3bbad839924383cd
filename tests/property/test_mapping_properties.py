"""Property-based tests for mappings and the greedy initial mapping."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architecture import Architecture, Node
from repro.core.mapping import MappingAlgorithm
from repro.core.mapping_model import ProcessMapping
from repro.generator.benchmark import BenchmarkConfig, build_platform, generate_benchmark


class TestProcessMappingProperties:
    assignments = st.dictionaries(
        keys=st.sampled_from([f"P{i}" for i in range(1, 9)]),
        values=st.sampled_from(["N1", "N2", "N3"]),
        min_size=1,
        max_size=8,
    )

    @given(assignments)
    def test_processes_on_partitions_the_mapping(self, assignment):
        mapping = ProcessMapping(assignment)
        collected = []
        for node in set(assignment.values()):
            collected.extend(mapping.processes_on(node))
        assert sorted(collected) == sorted(assignment)

    @given(assignments, st.sampled_from(["N1", "N2", "N3"]))
    def test_moved_changes_exactly_one_entry(self, assignment, target):
        mapping = ProcessMapping(assignment)
        process = sorted(assignment)[0]
        moved = mapping.moved(process, target)
        assert moved.node_of(process) == target
        for other in assignment:
            if other != process:
                assert moved.node_of(other) == mapping.node_of(other)

    @given(assignments)
    def test_equal_content_equals_and_hashes_alike(self, assignment):
        mapping = ProcessMapping(assignment)
        assert ProcessMapping(dict(assignment)) == mapping
        assert hash(ProcessMapping(dict(assignment))) == hash(mapping)


class TestInitialMappingProperties:
    @given(st.integers(min_value=1, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_greedy_initial_mapping_is_always_valid(self, seed):
        benchmark = generate_benchmark(
            seed, config=BenchmarkConfig(n_processes=10, n_node_types=3)
        )
        node_types, profile = build_platform(benchmark, 1e-11, 25.0)
        architecture = Architecture([Node(nt.name, nt) for nt in node_types[:2]])
        mapping = MappingAlgorithm().initial_mapping(
            benchmark.application, architecture, profile
        )
        mapping.validate(benchmark.application, architecture, profile)
        # The load balancer should not leave a node idle while the other holds
        # everything, unless the instance is degenerate (it never is here).
        assert len(mapping.used_nodes()) == 2
