"""Tests for time series and percentile summaries."""

import numpy as np
import pytest

from repro.simulation.stats import TimeSeries, percentile_summary


class TestTimeSeries:
    def test_add_and_reduce(self):
        series = TimeSeries(name="responses")
        for t, v in [(0, 10.0), (1, 20.0), (2, 30.0)]:
            series.add(t, v)
        assert len(series) == 3
        assert series.mean() == pytest.approx(20.0)
        assert series.std() == pytest.approx(np.std([10, 20, 30]))

    def test_rejects_decreasing_times(self):
        series = TimeSeries()
        series.add(5.0, 1.0)
        with pytest.raises(ValueError):
            series.add(4.0, 1.0)

    def test_window_selects_half_open_interval(self):
        series = TimeSeries()
        for t in range(10):
            series.add(float(t), float(t))
        window = series.window(2.0, 5.0)
        assert window.times == [2.0, 3.0, 4.0]

    def test_empty_series_reductions_raise(self):
        with pytest.raises(ValueError):
            TimeSeries().mean()

    def test_as_arrays(self):
        series = TimeSeries()
        series.add(1.0, 2.0)
        times, values = series.as_arrays()
        assert times.tolist() == [1.0]
        assert values.tolist() == [2.0]


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
