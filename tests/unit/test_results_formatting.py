"""Unit tests for the plain-text result rendering helpers."""

from __future__ import annotations

from repro.experiments.results import format_bar_chart, format_table, percentages
from repro.experiments.synthetic import render_arc_table, render_sweep


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"], [["a", 1.0], ["longer", 2.5]], title="My table"
        )
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_without_title(self):
        text = format_table(["x"], [[1]])
        assert not text.startswith("\n")
        assert text.splitlines()[0].strip() == "x"

    def test_float_formatting(self):
        text = format_table(["v"], [[3.14159]])
        assert "3.1" in text and "3.14159" not in text


class TestFormatBarChart:
    def test_bars_scale_with_value(self):
        text = format_bar_chart(
            {"HPD=5%": {"MIN": 50.0, "OPT": 100.0}}, width=10, title="chart"
        )
        lines = text.splitlines()
        assert lines[0] == "chart"
        min_line = next(line for line in lines if "MIN" in line)
        opt_line = next(line for line in lines if "OPT" in line)
        assert min_line.count("#") == 5
        assert opt_line.count("#") == 10

    def test_values_clamped(self):
        text = format_bar_chart({"g": {"X": 150.0}}, width=10)
        assert text.count("#") == 10


class TestPercentages:
    def test_conversion(self):
        assert percentages({"a": 3, "b": 1}, 4) == {"a": 75.0, "b": 25.0}

    def test_zero_total(self):
        assert percentages({"a": 3}, 0) == {"a": 0.0}


class TestSweepRendering:
    def test_render_sweep(self):
        sweep = {5.0: {"MIN": 76.0, "MAX": 71.0, "OPT": 94.0}}
        text = render_sweep(sweep, "Fig. 6a")
        assert "Fig. 6a" in text
        assert "MIN" in text and "OPT" in text
        assert "94.0" in text

    def test_render_arc_table(self):
        table = {5.0: {15.0: {"MIN": 76.0, "MAX": 35.0, "OPT": 92.0}}}
        text = render_arc_table(table, "Fig. 6b")
        assert "ArC" in text
        assert "92.0" in text
