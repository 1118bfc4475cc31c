"""Tests for the battery drain model."""

import pytest

from repro.mobile.battery import BatteryModel


class TestValidation:
    def test_rejects_out_of_range_level(self):
        with pytest.raises(ValueError):
            BatteryModel(level=1.5)
        with pytest.raises(ValueError):
            BatteryModel(level=-0.1)

    def test_rejects_negative_drain_rates(self):
        with pytest.raises(ValueError):
            BatteryModel(offload_cost_per_second=-0.1)


class TestDrain:
    def test_offload_drain_scales_with_connection_time(self):
        battery = BatteryModel(level=1.0, offload_cost_per_second=0.001)
        battery.drain_offload(5000.0)  # 5 seconds of open connection
        assert battery.level == pytest.approx(0.995)

    def test_offload_drain_rejects_negative_time(self):
        with pytest.raises(ValueError):
            BatteryModel().drain_offload(-1.0)

    def test_offload_drain_rejects_nan_time(self):
        battery = BatteryModel()
        with pytest.raises(ValueError, match="connection_open_ms"):
            battery.drain_offload(float("nan"))
        assert battery.level == 1.0

    def test_level_never_goes_below_zero(self):
        battery = BatteryModel(level=0.01, offload_cost_per_second=1.0)
        battery.drain_offload(10_000.0)
        assert battery.level == 0.0

    def test_longer_responses_drain_more(self):
        """The premise of the battery-aware promotion policy (Section VII-3)."""
        slow, fast = BatteryModel(), BatteryModel()
        slow.drain_offload(5000.0)
        fast.drain_offload(1000.0)
        assert slow.level < fast.level
