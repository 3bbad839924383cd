"""Unit tests for execution profiles (t_ijh / p_ijh tables)."""

from __future__ import annotations

import pytest

from repro.core.architecture import Node
from repro.core.exceptions import ProfileError
from repro.core.profile import ExecutionProfile, ProfileEntry


class TestProfileEntry:
    def test_valid_entry(self):
        entry = ProfileEntry(wcet=10.0, failure_probability=1e-5)
        assert entry.wcet == 10.0

    def test_invalid_wcet(self):
        with pytest.raises(ValueError):
            ProfileEntry(wcet=0.0, failure_probability=0.1)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            ProfileEntry(wcet=1.0, failure_probability=1.5)


class TestExecutionProfile:
    def test_add_and_lookup(self, fig1_prof):
        assert fig1_prof.wcet("P1", "N1", 1) == 60.0
        assert fig1_prof.failure_probability("P1", "N1", 1) == pytest.approx(1.2e-3)
        assert fig1_prof.wcet("P4", "N2", 3) == 90.0

    def test_missing_entry_raises_with_context(self, fig1_prof):
        with pytest.raises(ProfileError, match="P1.*N1.*hardening level 4"):
            fig1_prof.wcet("P1", "N1", 4)

    def test_supports(self, fig1_prof):
        assert fig1_prof.supports("P1", "N1", 2)
        assert fig1_prof.supports("P1", "N1")
        assert not fig1_prof.supports("P1", "N9")
        assert not fig1_prof.supports("P9", "N1")

    def test_wcet_on_node_uses_current_hardening(self, fig1_prof, fig1_nodes):
        n1, _ = fig1_nodes
        node = Node("N1", n1, hardening=2)
        assert fig1_prof.wcet_on_node("P1", node) == 75.0
        node.harden()
        assert fig1_prof.wcet_on_node("P1", node) == 90.0

    def test_failure_probability_on_node(self, fig1_prof, fig1_nodes):
        _, n2 = fig1_nodes
        node = Node("N2", n2, hardening=3)
        assert fig1_prof.failure_probability_on_node("P4", node) == pytest.approx(1.3e-10)

    def test_processes_and_node_types(self, fig1_prof):
        assert fig1_prof.processes() == ["P1", "P2", "P3", "P4"]
        assert fig1_prof.node_types() == ["N1", "N2"]

    def test_validate_against_full_coverage(self, fig1_app, fig1_nodes, fig1_prof):
        fig1_prof.validate_against(fig1_app, list(fig1_nodes))

    def test_validate_against_detects_missing_entries(self, fig1_app, fig1_nodes):
        profile = ExecutionProfile()
        profile.add_entry("P1", "N1", 1, 60.0, 1e-3)
        with pytest.raises(ProfileError, match="missing"):
            profile.validate_against(fig1_app, list(fig1_nodes))

    def test_entries_returns_copy(self, fig1_prof):
        entries = fig1_prof.entries()
        entries.clear()
        assert len(fig1_prof) == 24
