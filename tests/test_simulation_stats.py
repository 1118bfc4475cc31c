"""Tests for percentile summaries."""

import numpy as np
import pytest

from repro.simulation.stats import percentile_summary


class TestPercentileSummary:
    def test_summary_fields(self, rng):
        values = rng.exponential(100.0, size=1000)
        summary = percentile_summary(values)
        assert summary["count"] == 1000
        assert summary["min"] <= summary["p5"] <= summary["p50"] <= summary["p95"] <= summary["max"]
        assert summary["mean"] == pytest.approx(np.mean(values))

    def test_custom_percentiles(self):
        summary = percentile_summary([1, 2, 3, 4, 5], percentiles=(50.0,))
        assert summary["p50"] == 3.0
        assert "p95" not in summary

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            percentile_summary([])
