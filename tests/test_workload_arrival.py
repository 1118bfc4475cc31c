"""Tests for the arrival processes."""

import numpy as np
import pytest

from repro.workload.arrival import (
    FixedRateArrivalProcess,
    ModulatedPoissonProcess,
    PoissonArrivalProcess,
    UniformArrivalProcess,
)


class TestFixedRate:
    def test_gap_is_inverse_rate(self, rng):
        process = FixedRateArrivalProcess(rate_hz=4.0)
        assert process.sample_gaps_ms(rng, 3).tolist() == [250.0, 250.0, 250.0]

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            FixedRateArrivalProcess(rate_hz=0.0)

    def test_arrival_times_fill_interval(self, rng):
        process = FixedRateArrivalProcess(rate_hz=1.0)
        times = process.arrival_times_array(rng, start_ms=0.0, end_ms=10_000.0)
        assert len(times) == 9  # arrivals strictly inside (0, 10000)
        assert all(earlier < later for earlier, later in zip(times, times[1:]))

    def test_max_arrivals_cap(self, rng):
        process = FixedRateArrivalProcess(rate_hz=100.0)
        times = process.arrival_times_array(rng, start_ms=0.0, end_ms=10_000.0, max_arrivals=5)
        assert len(times) == 5

    def test_invalid_interval(self, rng):
        with pytest.raises(ValueError):
            FixedRateArrivalProcess(rate_hz=1.0).arrival_times_array(rng, start_ms=10.0, end_ms=0.0)


class TestPoisson:
    def test_mean_rate_matches(self, rng):
        process = PoissonArrivalProcess(rate_hz=10.0)
        times = process.arrival_times_array(rng, start_ms=0.0, end_ms=100_000.0)
        # Expect about 1000 arrivals over 100 seconds at 10 Hz.
        assert len(times) == pytest.approx(1000, rel=0.15)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivalProcess(rate_hz=-1.0)

    def test_gaps_are_random(self, rng):
        process = PoissonArrivalProcess(rate_hz=1.0)
        gaps = set(process.sample_gaps_ms(rng, 10).tolist())
        assert len(gaps) > 1


class TestUniform:
    def test_defaults_match_usage_study_range(self, rng):
        """The paper reports inter-arrival gaps between 100 and 5000 ms."""
        process = UniformArrivalProcess()
        gaps = process.sample_gaps_ms(rng, 1000)
        assert min(gaps) >= 100.0
        assert max(gaps) <= 5000.0
        assert np.mean(gaps) == pytest.approx(2550.0, rel=0.1)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformArrivalProcess(low_ms=500.0, high_ms=100.0)


class TestModulatedPoisson:
    def test_constant_rate_matches_homogeneous_poisson_intensity(self):
        process = ModulatedPoissonProcess(lambda t: 2.0, peak_rate_hz=2.0)
        rng = np.random.default_rng(0)
        times = process.arrival_times_array(rng, start_ms=0.0, end_ms=100_000.0)
        # 2 Hz over 100 s -> ~200 arrivals.
        assert 150 < len(times) < 250

    def test_zero_rate_interval_gets_no_arrivals(self):
        process = ModulatedPoissonProcess(
            lambda t: 0.0 if t < 50_000.0 else 4.0, peak_rate_hz=4.0
        )
        rng = np.random.default_rng(1)
        times = process.arrival_times_array(rng, start_ms=0.0, end_ms=100_000.0)
        assert times.size
        assert (times >= 50_000.0).all()

    def test_max_arrivals_cap(self):
        process = ModulatedPoissonProcess(lambda t: 10.0, peak_rate_hz=10.0)
        rng = np.random.default_rng(2)
        times = process.arrival_times_array(
            rng, start_ms=0.0, end_ms=1_000_000.0, max_arrivals=7
        )
        assert len(times) == 7

    def test_rejects_rate_above_peak(self):
        process = ModulatedPoissonProcess(lambda t: 5.0, peak_rate_hz=1.0)
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="exceeded peak_rate_hz"):
            process.arrival_times_array(rng, start_ms=0.0, end_ms=10_000.0)

    def test_rejects_negative_rate(self):
        process = ModulatedPoissonProcess(lambda t: -1.0, peak_rate_hz=1.0)
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="negative rate"):
            process.arrival_times_array(rng, start_ms=0.0, end_ms=10_000.0)

    def test_rejects_non_positive_peak(self):
        with pytest.raises(ValueError, match="peak_rate_hz"):
            ModulatedPoissonProcess(lambda t: 1.0, peak_rate_hz=0.0)

    def test_next_gap_is_not_defined(self):
        # A non-homogeneous process has no stationary gap distribution; it
        # generates arrival times by thinning instead.
        process = ModulatedPoissonProcess(lambda t: 1.0, peak_rate_hz=1.0)
        with pytest.raises(NotImplementedError):
            process.sample_gaps_ms(np.random.default_rng(0), 1)

