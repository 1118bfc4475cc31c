"""Edge-case tests for the discrete-event engine.

Covers the behaviours the scenario engine leans on: cancelled events are
skipped (and not counted as executed), equal-timestamp events fire in FIFO
order, and callbacks can schedule further events — including at the current
instant — without confusing the loop.
"""

import pytest

from repro.simulation.engine import SimulationEngine


class TestCancelledEvents:
    def test_cancelled_event_is_skipped(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule_at(10.0, lambda: fired.append("cancelled"))
        engine.schedule_at(20.0, lambda: fired.append("kept"))
        event.cancel()
        engine.run()
        assert fired == ["kept"]

    def test_cancelled_event_not_counted_as_executed(self):
        engine = SimulationEngine()
        event = engine.schedule_at(5.0, lambda: None)
        engine.schedule_at(6.0, lambda: None)
        event.cancel()
        executed = engine.run()
        assert executed == 1
        assert engine.processed_events == 1

    def test_cancelling_inside_a_callback_prevents_later_event(self):
        engine = SimulationEngine()
        fired = []
        victim = engine.schedule_at(10.0, lambda: fired.append("victim"))
        engine.schedule_at(5.0, victim.cancel)
        engine.run()
        assert fired == []

    def test_clock_does_not_advance_to_cancelled_tail_event(self):
        # A cancelled event is popped but never executed; the clock only
        # advances when a live callback runs (or the horizon is reached).
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda: None)
        tail = engine.schedule_at(50.0, lambda: None)
        tail.cancel()
        engine.run()
        assert engine.now_ms == 5.0


class TestFifoTieBreak:
    def test_equal_timestamps_fire_in_scheduling_order(self):
        engine = SimulationEngine()
        order = []
        for label in ("first", "second", "third"):
            engine.schedule_at(42.0, lambda label=label: order.append(label))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_tie_break_is_by_schedule_time_not_insertion_at_different_times(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(42.0, lambda: order.append("early-scheduled"))
        engine.schedule_at(10.0, lambda: engine.schedule_at(
            42.0, lambda: order.append("late-scheduled")))
        engine.run()
        assert order == ["early-scheduled", "late-scheduled"]


class TestSchedulingFromCallbacks:
    def test_callback_can_schedule_future_event(self):
        engine = SimulationEngine()
        times = []

        def first():
            times.append(engine.now_ms)
            engine.schedule_after(15.0, lambda: times.append(engine.now_ms))

        engine.schedule_at(10.0, first)
        engine.run()
        assert times == [10.0, 25.0]

    def test_callback_can_schedule_at_the_current_instant(self):
        # schedule_at(now) from inside a callback is legal (not "the past")
        # and fires before later events, in FIFO order.
        engine = SimulationEngine()
        order = []

        def outer():
            order.append("outer")
            engine.schedule_at(engine.now_ms, lambda: order.append("inner"))

        engine.schedule_at(10.0, outer)
        engine.schedule_at(11.0, lambda: order.append("later"))
        engine.run()
        assert order == ["outer", "inner", "later"]

    def test_callback_scheduling_in_the_past_raises(self):
        engine = SimulationEngine()
        failures = []

        def callback():
            try:
                engine.schedule_at(engine.now_ms - 1.0, lambda: None)
            except ValueError as error:
                failures.append(str(error))

        engine.schedule_at(10.0, callback)
        engine.run()
        assert len(failures) == 1
        assert "past" in failures[0]

    def test_chained_rescheduling_respects_horizon(self):
        engine = SimulationEngine()
        ticks = []

        def tick():
            ticks.append(engine.now_ms)
            engine.schedule_after(10.0, tick)

        engine.schedule_at(0.0, tick)
        engine.run(until_ms=35.0)
        assert ticks == [0.0, 10.0, 20.0, 30.0]
        assert engine.now_ms == 35.0  # clock advanced to the horizon
        assert engine.pending_events == 1  # the 40 ms tick stays queued

    def test_processed_count_is_exact_when_a_callback_raises(self):
        engine = SimulationEngine()

        def boom():
            raise RuntimeError("boom")

        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, boom)
        engine.schedule_at(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            engine.run()
        # The raising event is not counted; the one before it is.
        assert engine.processed_events == 1
        assert engine.run() == 1
        assert engine.processed_events == 2


class TestNanTimes:
    """NaN compares False with everything, so it must fail the time checks."""

    def test_schedule_at_nan_is_refused(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError, match="cannot schedule event in the past"):
            engine.schedule_at(float("nan"), lambda: None)
        assert engine.pending_events == 0
        engine.run()
        assert engine.now_ms == 0.0

    def test_schedule_after_nan_is_refused(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError, match="delay must be non-negative"):
            engine.schedule_after(float("nan"), lambda: None)
        assert engine.pending_events == 0
