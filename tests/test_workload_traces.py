"""Tests for the request trace log."""

import pytest

from repro.simulation.clock import MILLISECONDS_PER_HOUR
from repro.workload.traces import TraceLog, TraceRecord


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(timestamp_ms=-1, user_id=0, acceleration_group=1, battery_level=1.0, round_trip_time_ms=1.0)
        with pytest.raises(ValueError):
            TraceRecord(timestamp_ms=0, user_id=-1, acceleration_group=1, battery_level=1.0, round_trip_time_ms=1.0)
        with pytest.raises(ValueError):
            TraceRecord(timestamp_ms=0, user_id=0, acceleration_group=-1, battery_level=1.0, round_trip_time_ms=1.0)
        with pytest.raises(ValueError):
            TraceRecord(timestamp_ms=0, user_id=0, acceleration_group=1, battery_level=1.5, round_trip_time_ms=1.0)
        with pytest.raises(ValueError):
            TraceRecord(timestamp_ms=0, user_id=0, acceleration_group=1, battery_level=1.0, round_trip_time_ms=-1.0)


class TestTraceLog:
    def make_log(self):
        log = TraceLog()
        # Two hours of traces: hour 0 has users 1 and 2 in group 1;
        # hour 1 has user 2 in group 2 and user 3 in group 1.
        log.log(10.0, 1, 1, 0.9, 2000.0)
        log.log(20.0, 2, 1, 0.8, 2100.0)
        log.log(MILLISECONDS_PER_HOUR + 10.0, 2, 2, 0.7, 1500.0)
        log.log(MILLISECONDS_PER_HOUR + 20.0, 3, 1, 0.6, 2500.0)
        return log

    def test_append_and_len(self):
        log = self.make_log()
        assert len(log) == 4
        assert len(list(log)) == 4

    def test_window_is_half_open(self):
        log = self.make_log()
        window = log.window(0.0, MILLISECONDS_PER_HOUR)
        assert len(window) == 2
        with pytest.raises(ValueError):
            log.window(10.0, 0.0)

    def test_hourly_slot_workloads(self):
        log = self.make_log()

        def group_users(window):
            return {(record.acceleration_group, record.user_id) for record in window}

        first = log.window(0.0, MILLISECONDS_PER_HOUR)
        second = log.window(MILLISECONDS_PER_HOUR, 2 * MILLISECONDS_PER_HOUR)
        assert group_users(first) == {(1, 1), (1, 2)}
        assert group_users(second) == {(1, 3), (2, 2)}

    def test_slot_workloads_empty_log(self):
        assert len(TraceLog().window(0.0, 1000.0)) == 0
