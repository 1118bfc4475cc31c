"""Tests for the text/CSV reporting helpers."""

import csv

import pytest

from repro.analysis.reporting import format_table, summarize_comparison, write_csv

ROWS = [
    {"instance_type": "t2.nano", "level": 1, "mean_ms": 2005.1},
    {"instance_type": "m4.10xlarge", "level": 3, "mean_ms": 1160.0},
    {"headline": "87.5% accuracy"},
]


class TestFormatTable:
    def test_contains_all_values_and_columns(self):
        text = format_table(ROWS)
        for token in ("instance_type", "t2.nano", "m4.10xlarge", "headline", "87.5% accuracy"):
            assert token in text

    def test_missing_cells_rendered_with_placeholder(self):
        text = format_table(ROWS, missing="·")
        assert "·" in text

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"

    def test_alignment_produces_equal_width_header_and_separator(self):
        lines = format_table(ROWS).splitlines()
        assert len(lines[0]) == len(lines[1])


class TestCsvRoundTrip:
    def test_write_and_read(self, tmp_path):
        path = write_csv(ROWS, tmp_path / "out" / "fig.csv")
        assert path.exists()
        with path.open(newline="") as handle:
            loaded = list(csv.DictReader(handle))
        assert len(loaded) == 3
        assert loaded[0]["instance_type"] == "t2.nano"
        assert loaded[2]["headline"] == "87.5% accuracy"
        # Missing cells come back as empty strings.
        assert loaded[2]["instance_type"] == ""

    def test_write_empty_raises(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "empty.csv")


class TestSummarizeComparison:
    def test_deviation_computed(self):
        rows = summarize_comparison({"accuracy": 87.5}, {"accuracy": 86.5})
        assert rows[0]["paper"] == 87.5
        assert rows[0]["measured"] == 86.5
        assert rows[0]["deviation_pct"] == pytest.approx(-1.1, abs=0.1)

    def test_missing_measurement_is_nan(self):
        rows = summarize_comparison({"speedup": 1.25}, {})
        assert rows[0]["deviation_pct"] == "n/a"
