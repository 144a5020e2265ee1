"""Tests for the report rendering helpers (incl. bar charts)."""

import pytest

from repro.report import format_bars, format_percent, format_series, format_table


class TestFormatBars:
    def test_longest_bar_spans_width(self):
        out = format_bars("t", [("a", 1.0), ("b", 0.5)], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 5

    def test_labels_aligned(self):
        out = format_bars("t", [("short", 1.0), ("longer-label", 0.5)])
        lines = out.splitlines()
        assert lines[1].startswith("short        ")  # padded to longest label

    def test_values_printed(self):
        out = format_bars("t", [("a", 0.123)], value_format="{:.2f}")
        assert "0.12" in out

    def test_zero_values_ok(self):
        out = format_bars("t", [("a", 0.0), ("b", 0.0)])
        assert "a" in out and "b" in out

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            format_bars("t", [("a", -1.0)])

    def test_empty_items(self):
        assert format_bars("just title", []) == "just title"


class TestFormatTableEdgeCases:
    def test_all_left_aligned(self):
        out = format_table("t", ["a", "b"], [["x", "y"]], align_left_cols=2)
        assert "x" in out

    def test_numbers_right_aligned(self):
        out = format_table("t", ["name", "v"], [["a", 5], ["b", 123]])
        lines = out.splitlines()
        assert lines[-2].endswith("123")

    def test_wide_cells_expand_columns(self):
        out = format_table("t", ["n", "v"], [["very-long-label", 1]])
        assert "very-long-label" in out

    def test_percent_digits(self):
        assert format_percent(0.123456, digits=3) == "12.346%"

    def test_series_roundtrip(self):
        out = format_series("s", "size", "rate", [("1 KB", "10%")])
        assert "1 KB" in out and "10%" in out
