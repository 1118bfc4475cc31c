"""Tests for device profiles and the mobile device actor."""

import pytest

from repro.mobile.device import (
    DEVICE_PROFILES,
    RECENT_RESPONSES,
    DeviceProfile,
    MobileDevice,
)
from repro.mobile.tasks import DEFAULT_TASK_POOL


class TestDeviceProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile(name="", local_speed_factor=1.0)
        with pytest.raises(ValueError):
            DeviceProfile(name="x", local_speed_factor=0.0)
        with pytest.raises(ValueError):
            DeviceProfile(name="x", local_speed_factor=1.0, cores=0)

    def test_local_execution_scales_with_speed(self):
        slow = DeviceProfile(name="old", local_speed_factor=0.25)
        fast = DeviceProfile(name="new", local_speed_factor=0.5)
        assert slow.local_execution_time_ms(100.0) == 400.0
        assert fast.local_execution_time_ms(100.0) == 200.0

    def test_local_execution_rejects_bad_work(self):
        with pytest.raises(ValueError):
            DEVICE_PROFILES["wearable"].local_execution_time_ms(0.0)

    def test_default_profiles_span_the_paper_motivation(self):
        """Wearables are much slower than flagship phones (Section I)."""
        assert DEVICE_PROFILES["wearable"].local_speed_factor < DEVICE_PROFILES["budget-phone"].local_speed_factor
        assert DEVICE_PROFILES["budget-phone"].local_speed_factor < DEVICE_PROFILES["flagship-phone"].local_speed_factor

    def test_all_profiles_slower_than_level1_cloud_core(self):
        assert all(profile.local_speed_factor < 1.0 for profile in DEVICE_PROFILES.values())


class TestMobileDevice:
    def make_device(self, **kwargs):
        defaults = dict(user_id=1, profile=DEVICE_PROFILES["budget-phone"], acceleration_group=1)
        defaults.update(kwargs)
        return MobileDevice(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make_device(user_id=-1)
        with pytest.raises(ValueError):
            self.make_device(acceleration_group=-1)

    def test_record_response_tracks_history_and_drains_battery(self):
        device = self.make_device()
        level_before = device.battery.level
        device.record_response(2000.0)
        assert device.responses_recorded == 1
        assert list(device.recent_responses_ms) == [2000.0]
        assert device.battery.level < level_before

    def test_tail_keeps_only_the_most_recent_responses(self):
        device = self.make_device()
        for value in range(RECENT_RESPONSES + 5):
            device.record_response(float(value))
        device.record_responses([1000.0, 1001.0])
        assert device.responses_recorded == RECENT_RESPONSES + 7
        expected = [float(v) for v in range(7, RECENT_RESPONSES + 5)] + [1000.0, 1001.0]
        assert list(device.recent_responses_ms) == expected
        device.record_responses([float(v) for v in range(3 * RECENT_RESPONSES)])
        assert list(device.recent_responses_ms) == [
            float(v) for v in range(2 * RECENT_RESPONSES, 3 * RECENT_RESPONSES)
        ]

    def test_record_response_rejects_negative(self):
        with pytest.raises(ValueError):
            self.make_device().record_response(-1.0)

    def test_record_response_rejects_nan(self):
        device = self.make_device()
        with pytest.raises(ValueError, match="response_time_ms"):
            device.record_response(float("nan"))
        assert device.responses_recorded == 0
        assert not device.recent_responses_ms
        assert device.battery.level == 1.0

    def test_record_responses_rejects_nan(self):
        device = self.make_device()
        with pytest.raises(ValueError, match="got nan"):
            device.record_responses([2000.0, float("nan")])
        assert device.responses_recorded == 0
        assert not device.recent_responses_ms
        assert device.battery.level == 1.0

    def test_promote_moves_up_and_records_time(self):
        device = self.make_device(acceleration_group=1)
        device.promote(2, at_ms=1234.0)
        assert device.acceleration_group == 2
        assert device.promotions == [1234.0]

    def test_promote_must_increase_group(self):
        device = self.make_device(acceleration_group=2)
        with pytest.raises(ValueError):
            device.promote(2, at_ms=0.0)
        with pytest.raises(ValueError):
            device.promote(1, at_ms=0.0)

    def test_recent_mean_response(self):
        device = self.make_device()
        assert device.recent_mean_response_ms() is None
        for value in (100.0, 200.0, 300.0):
            device.record_response(value)
        assert device.recent_mean_response_ms(window=2) == 250.0
        assert device.recent_mean_response_ms(window=RECENT_RESPONSES) == 200.0
        with pytest.raises(ValueError):
            device.recent_mean_response_ms(window=0)
        with pytest.raises(ValueError, match=f"window must be <= {RECENT_RESPONSES}"):
            device.recent_mean_response_ms(window=RECENT_RESPONSES + 1)

    def test_local_execution_time_uses_profile(self):
        device = self.make_device(profile=DEVICE_PROFILES["wearable"])
        minimax = DEFAULT_TASK_POOL.get("minimax")
        assert device.local_execution_time_ms(minimax) == pytest.approx(2000.0 / 0.08)

    def test_should_offload_follows_classic_rule(self):
        """Offload iff the remote path is faster than local execution (Section II-A)."""
        device = self.make_device(profile=DEVICE_PROFILES["wearable"])
        minimax = DEFAULT_TASK_POOL.get("minimax")
        local = device.local_execution_time_ms(minimax)
        assert device.should_offload(minimax, expected_remote_ms=local / 2)
        assert not device.should_offload(minimax, expected_remote_ms=local * 2)

    def test_should_offload_rejects_negative_estimate(self):
        with pytest.raises(ValueError):
            self.make_device().should_offload(DEFAULT_TASK_POOL.get("minimax"), -1.0)

    def test_record_failure_counts(self):
        device = self.make_device()
        device.record_failure()
        device.record_failure()
        assert device.requests_failed == 2
