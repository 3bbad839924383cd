"""Unit tests for execution profiles (t_ijh / p_ijh tables)."""

from __future__ import annotations

import pytest

from repro.core.architecture import Node
from repro.core.application import Application
from repro.core.exceptions import ModelError, ProfileError
from repro.core.profile import ExecutionProfile, ProfileEntry
from repro.engine import EvaluationEngine


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
        node.hardening = 3
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

    def test_failure_probabilities_follow_the_process_order(self, fig1_prof):
        expected = tuple(
            fig1_prof.failure_probability(process, "N2", 2) for process in ("P3", "P1")
        )
        assert fig1_prof.failure_probabilities(("P3", "P1"), "N2", 2) == expected
        assert fig1_prof.failure_probabilities((), "N2", 2) == ()

    def test_failure_probabilities_report_a_missing_entry(self, fig1_prof):
        with pytest.raises(ProfileError, match="P9.*N1.*hardening level 1"):
            fig1_prof.failure_probabilities(("P1", "P9"), "N1", 1)

    def test_failure_rows_follow_a_new_entry(self):
        profile = ExecutionProfile()
        profile.add_entry("P1", "N1", 1, 10.0, 1e-3)
        assert profile.failure_probabilities(("P1",), "N1", 1) == (1e-3,)
        profile.add_entry("P1", "N1", 1, 10.0, 2e-3)
        profile.add_entry("P2", "N1", 1, 10.0, 3e-3)
        assert profile.failure_probabilities(("P1", "P2"), "N1", 1) == (2e-3, 3e-3)


class TestProfileNames:
    """Names are checked where a row enters the profile, not later when a
    store fingerprints the profile."""

    @pytest.mark.parametrize("name", ["", "\ud800", None])
    @pytest.mark.parametrize("position", ["process", "node_type"])
    def test_bad_name_is_rejected_and_leaves_the_profile_unchanged(self, name, position):
        profile = ExecutionProfile()
        profile.add_entry("P1", "N1", 1, 10.0, 1e-3)
        before = (profile.entries(), profile.processes(), profile.node_types())
        row = {"process": "P1", "node_type": "N1", position: name}
        with pytest.raises(ModelError, match="name"):
            profile.add_entry(row["process"], row["node_type"], 1, 10.0, 1e-3)
        assert (profile.entries(), profile.processes(), profile.node_types()) == before

    def test_a_checked_profile_fingerprints(self):
        application = Application("A", deadline=100.0, reliability_goal=0.9)
        application.new_graph("G")
        profile = ExecutionProfile()
        profile.add_entry("P\u00e9", "N1", 1, 10.0, 1e-3)
        assert len(EvaluationEngine(application, profile).stable_context()) == 64
