"""Tests for the one-shot reproduction summary."""

import pytest

from repro.experiments.summary import (
    PAPER_HEADLINES,
    build_reproduction_summary,
    measure_headlines,
)


@pytest.fixture(scope="module")
def rows():
    return build_reproduction_summary(seed=0, samples_per_level=100)


class TestReproductionSummary:
    def test_every_headline_is_measured(self, rows):
        metrics = {row["metric"] for row in rows}
        assert metrics == set(PAPER_HEADLINES)

    def test_rows_carry_paper_and_measured_values(self, rows):
        for row in rows:
            assert row["paper"] == PAPER_HEADLINES[row["metric"]]
            assert isinstance(row["measured"], float)

    def test_every_headline_within_twenty_percent_of_paper(self, rows):
        """The calibrated reproduction tracks every headline closely."""
        deviations = [abs(float(row["deviation_pct"])) for row in rows if row["deviation_pct"] != "n/a"]
        assert deviations
        assert max(deviations) < 20.0

    def test_key_numbers_match_tightly(self, rows):
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["fig5: level3 vs level1 speedup"]["measured"] == pytest.approx(1.73, rel=0.08)
        assert by_metric["fig8a: SDN routing overhead [ms]"]["measured"] == pytest.approx(150.0, rel=0.1)
        assert by_metric["fig8b: t2.large saturation rate [Hz]"]["measured"] == pytest.approx(32.0, rel=0.05)
        assert by_metric["fig10a: prediction accuracy [%]"]["measured"] == pytest.approx(87.5, abs=7.0)

    def test_measure_headlines_is_deterministic_per_seed(self):
        first = measure_headlines(seed=3, samples_per_level=60)
        second = measure_headlines(seed=3, samples_per_level=60)
        assert first == second
