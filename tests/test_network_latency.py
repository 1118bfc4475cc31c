"""Tests for the parametric cellular latency models."""

import numpy as np
import pytest

from repro.network.latency import (
    ConstantLatencyModel,
    LogNormalLatencyModel,
    lte_latency_model,
    three_g_latency_model,
)


class TestLogNormalLatencyModel:
    def test_rejects_mean_below_median(self):
        with pytest.raises(ValueError):
            LogNormalLatencyModel(median_ms=50.0, mean_ms=40.0)

    def test_rejects_non_positive_median(self):
        with pytest.raises(ValueError):
            LogNormalLatencyModel(median_ms=0.0, mean_ms=10.0)

    def test_rejects_bad_diurnal_amplitude(self):
        with pytest.raises(ValueError):
            LogNormalLatencyModel(median_ms=10.0, mean_ms=20.0, diurnal_amplitude=1.5)

    def test_fitted_parameters_reproduce_median_and_mean(self, rng):
        model = LogNormalLatencyModel(median_ms=50.0, mean_ms=130.0, diurnal_amplitude=0.0, floor_ms=0.1)
        samples = model.sample_many_at(rng, np.full(200_000, 12.0))
        assert np.median(samples) == pytest.approx(50.0, rel=0.05)
        assert np.mean(samples) == pytest.approx(130.0, rel=0.05)

    def test_samples_respect_floor(self, rng):
        model = LogNormalLatencyModel(median_ms=10.0, mean_ms=12.0, floor_ms=8.0)
        samples = model.sample_many_at(rng, np.full(1000, 12.0))
        assert samples.min() >= 8.0

    @pytest.mark.parametrize("floor_ms", [1.0, 7.0])
    def test_zero_amplitude_gives_the_factor_path_bits_and_stream(self, floor_ms):
        # Without modulation the factor is exactly 1.0 and is skipped: the
        # samples and the generator's next draw stay those of the full path.
        model = LogNormalLatencyModel(
            median_ms=8.0, mean_ms=10.0, floor_ms=floor_ms, diurnal_amplitude=0.0
        )
        hours = np.linspace(0.0, 47.9, 5000)
        fast, reference = np.random.default_rng(3), np.random.default_rng(3)
        samples = model.sample_many_at(fast, hours)
        base = reference.lognormal(mean=model.mu, sigma=model.sigma, size=hours.shape)
        expected = np.maximum(base * model.diurnal_factors(hours), model.floor_ms)
        assert samples.tobytes() == expected.tobytes()
        assert fast.random() == reference.random()

    def test_diurnal_factor_peaks_at_peak_hour(self):
        model = LogNormalLatencyModel(median_ms=30.0, mean_ms=40.0, diurnal_amplitude=0.2, peak_hour=20.0)
        assert model.diurnal_factor(20.0) == pytest.approx(1.2)
        assert model.diurnal_factor(8.0) == pytest.approx(0.8)
        # Wraps around midnight.
        assert model.diurnal_factor(44.0) == model.diurnal_factor(20.0)

    def test_mean_and_median_accessors(self):
        model = LogNormalLatencyModel(median_ms=25.0, mean_ms=36.0)
        assert model.mean_rtt_ms() == 36.0
        assert model.median_ms == 25.0


class TestFactories:
    def test_lte_is_faster_than_3g(self, rng):
        lte = lte_latency_model()
        umts = three_g_latency_model()
        assert lte.mean_rtt_ms() < umts.mean_rtt_ms()
        lte_samples = lte.sample_many_at(rng, np.full(5000, 12.0))
        umts_samples = umts.sample_many_at(rng, np.full(5000, 12.0))
        assert np.mean(lte_samples) < np.mean(umts_samples)

    def test_lte_mean_in_paper_range(self):
        """The paper reports LTE means of 36-42 ms across operators."""
        assert 30.0 <= lte_latency_model().mean_rtt_ms() <= 45.0

    def test_3g_mean_in_paper_range(self):
        """The paper reports 3G means of 128-141 ms across operators."""
        assert 120.0 <= three_g_latency_model().mean_rtt_ms() <= 145.0


class TestConstantLatencyModel:
    def test_always_returns_value(self):
        model = ConstantLatencyModel(25.0)
        assert model.sample_rtt_ms() == 25.0
        assert model.mean_rtt_ms() == 25.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatencyModel(-1.0)
