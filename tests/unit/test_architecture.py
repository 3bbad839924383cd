"""Unit tests for the platform model (h-versions, node types, architectures)."""

from __future__ import annotations

import pytest

from repro.core.architecture import (
    Architecture,
    HVersion,
    Node,
    NodeType,
    doubling_cost_node_type,
    linear_cost_node_type,
)
from repro.core.exceptions import ModelError


class TestHVersion:
    def test_valid(self):
        version = HVersion(level=2, cost=32.0)
        assert version.level == 2
        assert version.cost == 32.0

    def test_level_below_one_rejected(self):
        with pytest.raises(ModelError):
            HVersion(level=0, cost=1.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            HVersion(level=1, cost=-1.0)


class TestNodeType:
    def test_levels_must_start_at_one_and_be_consecutive(self):
        with pytest.raises(ModelError):
            NodeType("N", [HVersion(2, 1.0), HVersion(3, 2.0)])
        with pytest.raises(ModelError):
            NodeType("N", [HVersion(1, 1.0), HVersion(3, 2.0)])

    def test_empty_versions_rejected(self):
        with pytest.raises(ModelError):
            NodeType("N", [])

    def test_cost_lookup(self, fig1_nodes):
        n1, n2 = fig1_nodes
        assert n1.cost(1) == 16.0
        assert n1.cost(3) == 64.0
        assert n2.cost(2) == 40.0

    def test_unknown_level_rejected(self, fig1_nodes):
        n1, _ = fig1_nodes
        with pytest.raises(ModelError):
            n1.cost(4)

    def test_min_max_properties(self, fig1_nodes):
        n1, _ = fig1_nodes
        assert n1.min_hardening == 1
        assert n1.max_hardening == 3
        assert n1.min_cost == 16.0
        assert n1.max_cost == 64.0
        assert n1.hardening_levels == [1, 2, 3]

    def test_invalid_speed_factor_rejected(self):
        with pytest.raises(ValueError):
            NodeType("N", [HVersion(1, 1.0)], speed_factor=0.0)


class TestCostLadders:
    def test_linear_cost_ladder(self):
        node_type = linear_cost_node_type("N", base_cost=3.0, levels=5)
        assert [node_type.cost(level) for level in range(1, 6)] == [3.0, 6.0, 9.0, 12.0, 15.0]

    def test_doubling_cost_ladder_matches_fig1(self):
        node_type = doubling_cost_node_type("N1", base_cost=16.0, levels=3)
        assert [node_type.cost(level) for level in range(1, 4)] == [16.0, 32.0, 64.0]

    def test_invalid_level_count_rejected(self):
        with pytest.raises(ModelError):
            linear_cost_node_type("N", base_cost=1.0, levels=0)

    def test_invalid_base_cost_rejected(self):
        with pytest.raises(ValueError):
            doubling_cost_node_type("N", base_cost=0.0, levels=2)


class TestNode:
    def test_defaults_to_min_hardening(self, fig1_nodes):
        n1, _ = fig1_nodes
        node = Node("N1", n1)
        assert node.hardening == 1
        assert node.cost == 16.0

    def test_explicit_hardening(self, fig1_nodes):
        n1, _ = fig1_nodes
        node = Node("N1", n1, hardening=3)
        assert node.hardening == 3
        assert node.cost == 64.0

    def test_invalid_hardening_rejected(self, fig1_nodes):
        n1, _ = fig1_nodes
        with pytest.raises(ModelError):
            Node("N1", n1, hardening=5)

    def test_harden_and_soften(self, fig1_nodes):
        n1, _ = fig1_nodes
        node = Node("N1", n1)
        node.hardening = 2
        assert node.hardening == 2
        node.hardening = 1
        assert node.hardening == 1

    def test_harden_beyond_max_rejected(self, fig1_nodes):
        n1, _ = fig1_nodes
        node = Node("N1", n1, hardening=3)
        assert node.hardening == n1.max_hardening
        with pytest.raises(ModelError):
            node.hardening = n1.max_hardening + 1
        assert node.hardening == n1.max_hardening

    def test_soften_below_min_rejected(self, fig1_nodes):
        n1, _ = fig1_nodes
        node = Node("N1", n1)
        assert node.hardening == n1.min_hardening
        with pytest.raises(ModelError):
            node.hardening = n1.min_hardening - 1
        assert node.hardening == n1.min_hardening

    def test_copy_is_independent(self, fig1_nodes):
        n1, _ = fig1_nodes
        node = Node("N1", n1, hardening=2)
        clone = node.copy()
        clone.hardening = 3
        assert node.hardening == 2
        assert clone.hardening == 3


class TestArchitecture:
    def test_requires_at_least_one_node(self):
        with pytest.raises(ModelError):
            Architecture([])

    def test_duplicate_node_names_rejected(self, fig1_nodes):
        n1, _ = fig1_nodes
        with pytest.raises(ModelError):
            Architecture([Node("N1", n1), Node("N1", n1)])

    def test_cost_sums_nodes(self, fig4a_architecture):
        assert fig4a_architecture.cost == 72.0

    def test_minimum_cost_uses_cheapest_versions(self, fig4a_architecture):
        assert fig4a_architecture.minimum_cost == 36.0

    def test_hardening_vector_roundtrip(self, fig4a_architecture):
        vector = fig4a_architecture.hardening_vector()
        assert vector == {"N1": 2, "N2": 2}
        fig4a_architecture.apply_hardening_vector({"N1": 1, "N2": 1})
        assert fig4a_architecture.hardening_vector() == {"N1": 1, "N2": 1}
        fig4a_architecture.apply_hardening_vector(vector)
        assert fig4a_architecture.hardening_vector() == vector

    def test_apply_hardening_vector_with_unknown_node_rejected(self, fig4a_architecture):
        with pytest.raises(ModelError):
            fig4a_architecture.apply_hardening_vector({"missing": 1})

    def test_copy_is_deep_for_nodes(self, fig4a_architecture):
        clone = fig4a_architecture.copy()
        clone.node("N1").hardening = 1
        assert clone.hardening_vector() == {"N1": 1, "N2": 2}
        assert fig4a_architecture.hardening_vector() == {"N1": 2, "N2": 2}

    def test_node_lookup(self, fig4a_architecture):
        assert fig4a_architecture.node("N1").node_type.name == "N1"
        assert fig4a_architecture.has_node("N2")
        assert "N2" in fig4a_architecture
        with pytest.raises(ModelError):
            fig4a_architecture.node("N9")

    def test_iteration_and_len(self, fig4a_architecture):
        assert len(fig4a_architecture) == 2
        assert [node.name for node in fig4a_architecture] == ["N1", "N2"]
