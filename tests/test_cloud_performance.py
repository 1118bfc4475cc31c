"""Tests for the analytic instance performance profiles."""

import numpy as np
import pytest

from repro.cloud.performance import PerformanceProfile


@pytest.fixture
def profile() -> PerformanceProfile:
    return PerformanceProfile(speed_factor=1.25, effective_cores=4.0, base_overhead_ms=5.0)


class TestValidation:
    def test_rejects_non_positive_speed(self):
        with pytest.raises(ValueError):
            PerformanceProfile(speed_factor=0.0, effective_cores=1.0)

    def test_rejects_non_positive_cores(self):
        with pytest.raises(ValueError):
            PerformanceProfile(speed_factor=1.0, effective_cores=0.0)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ValueError):
            PerformanceProfile(speed_factor=1.0, effective_cores=1.0, base_overhead_ms=-1.0)

    def test_rejects_invalid_jitter(self):
        with pytest.raises(ValueError):
            PerformanceProfile(speed_factor=1.0, effective_cores=1.0, jitter_fraction=1.5)


class TestServiceTime:
    def test_single_request_time(self, profile):
        # 100 work units at speed 1.25 plus 5 ms overhead.
        assert profile.service_time_ms(100.0, 1) == pytest.approx(5.0 + 80.0)

    def test_no_slowdown_within_cores(self, profile):
        assert profile.service_time_ms(100.0, 4) == profile.service_time_ms(100.0, 1)

    def test_processor_sharing_beyond_cores(self, profile):
        # 8 concurrent users on 4 effective cores double the execution time.
        base = profile.service_time_ms(100.0, 1) - profile.base_overhead_ms
        loaded = profile.service_time_ms(100.0, 8) - profile.base_overhead_ms
        assert loaded == pytest.approx(2.0 * base)

    def test_monotonically_nondecreasing_in_concurrency(self, profile):
        times = [profile.service_time_ms(100.0, c) for c in range(1, 50)]
        assert all(later >= earlier for earlier, later in zip(times, times[1:]))

    def test_rejects_bad_arguments(self, profile):
        with pytest.raises(ValueError):
            profile.service_time_ms(0.0, 1)
        with pytest.raises(ValueError):
            profile.service_time_ms(10.0, 0)



class TestThroughputAndCapacity:
    def test_max_throughput(self, profile):
        # rate = 1000 * speed * cores / work
        assert profile.max_throughput_per_second(250.0) == pytest.approx(1000 * 1.25 * 4 / 250.0)

    def test_capacity_zero_when_single_request_misses_threshold(self, profile):
        assert profile.capacity_under_threshold(1000.0, 50.0) == 0

    def test_capacity_grows_with_threshold(self, profile):
        low = profile.capacity_under_threshold(100.0, 200.0)
        high = profile.capacity_under_threshold(100.0, 2000.0)
        assert high > low >= 1

    def test_capacity_respects_response_bound(self, profile):
        work, threshold = 100.0, 500.0
        capacity = profile.capacity_under_threshold(work, threshold)
        assert profile.service_time_ms(work, capacity) <= threshold
        assert profile.service_time_ms(work, capacity + 2) > threshold

    def test_capacity_rejects_bad_threshold(self, profile):
        with pytest.raises(ValueError):
            profile.capacity_under_threshold(100.0, 0.0)

    def test_faster_profile_has_higher_capacity(self):
        slow = PerformanceProfile(speed_factor=1.0, effective_cores=4.0)
        fast = PerformanceProfile(speed_factor=2.0, effective_cores=4.0)
        assert fast.capacity_under_threshold(100.0, 500.0) > slow.capacity_under_threshold(100.0, 500.0)


class TestSampling:
    def test_sampled_time_is_near_mean(self, profile, rng):
        samples = [profile.sample_service_time_ms(200.0, 1, rng) for _ in range(500)]
        assert np.mean(samples) == pytest.approx(profile.service_time_ms(200.0, 1), rel=0.05)

    def test_zero_jitter_is_deterministic(self, rng):
        profile = PerformanceProfile(speed_factor=1.0, effective_cores=1.0, jitter_fraction=0.0)
        assert profile.sample_service_time_ms(100.0, 1, rng) == profile.service_time_ms(100.0, 1)

    def test_samples_never_below_overhead(self, profile, rng):
        samples = [profile.sample_service_time_ms(10.0, 1, rng) for _ in range(200)]
        assert min(samples) >= profile.base_overhead_ms


class TestCoreForms:
    """The single definitions of the float (fluid) and int (lane) core forms."""

    def test_fluid_cores_keeps_fractions(self):
        profile = PerformanceProfile(speed_factor=1.0, effective_cores=3.2)
        assert profile.fluid_cores == 3.2
        assert PerformanceProfile(speed_factor=1.0, effective_cores=0.5).fluid_cores == 1.0

    def test_service_lanes_round_half_up_like_the_ps_server(self):
        assert PerformanceProfile(speed_factor=1.0, effective_cores=3.2).service_lanes == 3
        assert PerformanceProfile(speed_factor=1.0, effective_cores=6.5).service_lanes == 6
        assert PerformanceProfile(speed_factor=1.0, effective_cores=0.4).service_lanes == 1

    def test_fractional_catalog_types_disagree_between_forms(self):
        # t2.small (3.2) and t2.large (6.5): the broker's fluid capacity
        # signal must use the float form even though the discrete queueing
        # models run on the rounded lanes.
        small = PerformanceProfile(speed_factor=1.0, effective_cores=3.2)
        large = PerformanceProfile(speed_factor=1.25, effective_cores=6.5)
        assert small.fluid_cores * small.speed_factor == pytest.approx(3.2)
        assert large.fluid_cores * large.speed_factor == pytest.approx(8.125)
        assert (small.service_lanes, large.service_lanes) == (3, 6)
