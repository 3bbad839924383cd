"""Unit tests for the ProcessMapping data type."""

from __future__ import annotations

import pytest

from repro.core.exceptions import MappingError
from repro.core.mapping_model import ProcessMapping


class TestProcessMapping:
    def test_construct_and_lookup(self):
        mapping = ProcessMapping({"P1": "N1"})
        assert mapping.node_of("P1") == "N1"
        assert mapping.is_mapped("P1")
        assert not mapping.is_mapped("P2")

    def test_unmapped_lookup_raises(self):
        with pytest.raises(MappingError):
            ProcessMapping().node_of("P1")

    def test_processes_on(self, fig4a_mapping):
        assert fig4a_mapping.processes_on("N1") == ["P1", "P2"]
        assert fig4a_mapping.processes_on("N2") == ["P3", "P4"]
        assert fig4a_mapping.processes_on("N3") == []

    def test_used_nodes_preserves_first_seen_order(self, fig4a_mapping):
        assert fig4a_mapping.used_nodes() == ["N1", "N2"]

    def test_is_immutable(self, fig4a_mapping):
        assert not hasattr(fig4a_mapping, "assign")
        assert fig4a_mapping.moved("P9", "N1").node_of("P9") == "N1"
        assert not fig4a_mapping.is_mapped("P9")

    def test_moved_returns_new_mapping(self, fig4a_mapping):
        moved = fig4a_mapping.moved("P1", "N2")
        assert moved.node_of("P1") == "N2"
        assert fig4a_mapping.node_of("P1") == "N1"
        assert moved != fig4a_mapping

    def test_equality_and_hash(self):
        first = ProcessMapping({"P1": "N1"})
        second = ProcessMapping({"P1": "N1"})
        third = ProcessMapping({"P1": "N2"})
        assert first == second
        assert hash(first) == hash(second)
        assert first != third
        assert first != "not a mapping"

    def test_len_iter_and_dict(self, fig4a_mapping):
        assert len(fig4a_mapping) == 4
        assert set(fig4a_mapping) == {"P1", "P2", "P3", "P4"}
        assert fig4a_mapping.as_dict()["P3"] == "N2"

    def test_validate_accepts_consistent_mapping(
        self, fig1_app, fig4a_architecture, fig4a_mapping, fig1_prof
    ):
        fig4a_mapping.validate(fig1_app, fig4a_architecture, fig1_prof)

    def test_validate_detects_unmapped_process(self, fig1_app, fig4a_architecture):
        incomplete = ProcessMapping({"P1": "N1"})
        with pytest.raises(MappingError, match="Unmapped"):
            incomplete.validate(fig1_app, fig4a_architecture)

    def test_validate_detects_unknown_process(self, fig1_app, fig4a_architecture, fig4a_mapping):
        extra = fig4a_mapping.moved("P9", "N1")
        with pytest.raises(MappingError, match="unknown processes"):
            extra.validate(fig1_app, fig4a_architecture)

    def test_validate_detects_unknown_node(self, fig1_app, fig4a_architecture, fig4a_mapping):
        wrong = fig4a_mapping.moved("P1", "N9")
        with pytest.raises(MappingError, match="unknown node"):
            wrong.validate(fig1_app, fig4a_architecture)

    def test_validate_detects_unsupported_profile_entry(
        self, fig1_app, fig4a_architecture, fig4a_mapping
    ):
        from repro.core.profile import ExecutionProfile

        empty_profile = ExecutionProfile()
        with pytest.raises(MappingError, match="no execution profile entry"):
            fig4a_mapping.validate(fig1_app, fig4a_architecture, empty_profile)
