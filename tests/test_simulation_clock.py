"""Tests for the simulation clock and time-unit helpers."""

import pytest

from repro.simulation.clock import (
    MILLISECONDS_PER_HOUR,
    MILLISECONDS_PER_MINUTE,
    MILLISECONDS_PER_SECOND,
    SimulationClock,
)


class TestSimulationClock:
    def test_starts_at_zero_by_default(self):
        assert SimulationClock()._now_ms == 0.0

    def test_starts_at_given_time(self):
        assert SimulationClock(500.0)._now_ms == 500.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimulationClock(-1.0)

    def test_advance_moves_forward(self):
        clock = SimulationClock()
        clock.advance_to(250.0)
        assert clock._now_ms == 250.0

    def test_advance_to_same_time_is_allowed(self):
        clock = SimulationClock(100.0)
        clock.advance_to(100.0)
        assert clock._now_ms == 100.0

    def test_advance_backwards_raises(self):
        clock = SimulationClock(100.0)
        with pytest.raises(ValueError):
            clock.advance_to(99.0)

    def test_repr_contains_time(self):
        assert "123" in repr(SimulationClock(123.0))


class TestUnitConversions:
    def test_constants_are_consistent(self):
        assert MILLISECONDS_PER_MINUTE == 60 * MILLISECONDS_PER_SECOND
        assert MILLISECONDS_PER_HOUR == 60 * MILLISECONDS_PER_MINUTE
