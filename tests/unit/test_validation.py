"""Unit tests for the argument validation helpers."""

from __future__ import annotations

import pytest

from repro.core.application import Application, Message, Process, TaskGraph
from repro.core.architecture import HVersion, Node, NodeType
from repro.core.exceptions import ModelError
from repro.utils.validation import (
    require_in_unit_interval,
    require_name,
    require_non_negative,
    require_positive,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(3.5, "x") == 3.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="deadline"):
            require_positive(-1.0, "deadline")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0.0, "mu") == 0.0

    def test_accepts_positive(self):
        assert require_non_negative(2.0, "mu") == 2.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="mu must be >= 0"):
            require_non_negative(-0.1, "mu")


class TestRequireInUnitInterval:
    def test_accepts_bounds(self):
        assert require_in_unit_interval(0.0, "p") == 0.0
        assert require_in_unit_interval(1.0, "p") == 1.0

    def test_accepts_interior(self):
        assert require_in_unit_interval(0.25, "p") == 0.25

    def test_rejects_above_one(self):
        with pytest.raises(ValueError, match="within \\[0, 1\\]"):
            require_in_unit_interval(1.0001, "p")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_in_unit_interval(-0.2, "p")


_NODE_TYPE = NodeType("T", [HVersion(1, 1.0)])

#: Each model class that takes a name, built around the name it is given.
NAMED = {
    "Process": lambda name: Process(name),
    "Message": lambda name: Message(name, "A", "B"),
    "TaskGraph": lambda name: TaskGraph(name),
    "Application": lambda name: Application(name, deadline=10.0, reliability_goal=0.9),
    "NodeType": lambda name: NodeType(name, [HVersion(1, 1.0)]),
    "Node": lambda name: Node(name, _NODE_TYPE),
}


class TestRequireName:
    def test_returns_a_valid_name(self):
        assert require_name("P1", "Process") == "P1"

    @pytest.mark.parametrize("kind", sorted(NAMED))
    @pytest.mark.parametrize(
        "name, message",
        [
            ("", "name must be a non-empty string"),
            (None, "name must be a non-empty string"),
            (7, "name must be a non-empty string"),
            (b"P1", "name must be a non-empty string"),
            ("P\ud800", "has no UTF-8 encoding"),
        ],
        ids=["empty", "none", "int", "bytes", "lone-surrogate"],
    )
    def test_every_model_class_rejects_an_unusable_name(self, kind, name, message):
        with pytest.raises(ModelError, match=f"^{kind} name") as raised:
            NAMED[kind](name)
        assert message in str(raised.value)

    @pytest.mark.parametrize("kind", sorted(NAMED))
    def test_every_model_class_keeps_a_unicode_name(self, kind):
        assert NAMED[kind]("Überwachung-π").name == "Überwachung-π"
