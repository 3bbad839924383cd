"""Unit tests for the partial-critical-path scheduling priorities."""

from __future__ import annotations

import pytest

from repro.core.mapping_model import ProcessMapping
from repro.scheduling.priorities import critical_path_priorities


class TestCriticalPathPriorities:
    def test_priorities_decrease_along_the_graph(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        priorities = critical_path_priorities(
            fig1_app, fig4a_architecture, fig4a_mapping, fig1_prof
        )
        assert priorities["P1"] > priorities["P2"] > priorities["P4"]
        assert priorities["P1"] > priorities["P3"] > priorities["P4"]

    def test_sink_priority_is_own_wcet(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        priorities = critical_path_priorities(
            fig1_app, fig4a_architecture, fig4a_mapping, fig1_prof
        )
        assert priorities["P4"] == pytest.approx(75.0)

    def test_cross_node_messages_contribute(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        priorities = critical_path_priorities(
            fig1_app, fig4a_architecture, fig4a_mapping, fig1_prof
        )
        # P2 -> P4 crosses nodes (10 ms message): 90 + 10 + 75.
        assert priorities["P2"] == pytest.approx(175.0)

    def test_same_node_messages_do_not_contribute(
        self, fig1_app, fig1_prof, fig4a_architecture
    ):
        mapping = ProcessMapping({"P1": "N1", "P2": "N1", "P3": "N1", "P4": "N1"})
        priorities = critical_path_priorities(
            fig1_app, fig4a_architecture, mapping, fig1_prof
        )
        # All on N1 at h=2: P2 rank = 90 + 90 (P4) with no message time.
        assert priorities["P2"] == pytest.approx(180.0)

    def test_every_process_has_a_priority(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        priorities = critical_path_priorities(
            fig1_app, fig4a_architecture, fig4a_mapping, fig1_prof
        )
        assert set(priorities) == {"P1", "P2", "P3", "P4"}
