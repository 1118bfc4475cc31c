"""Tests for the discrete-event simulation engine."""

import pytest

from repro.simulation.engine import SimulationEngine


class TestScheduling:
    def test_schedule_at_runs_callback(self, engine):
        fired = []
        engine.schedule_at(10.0, lambda: fired.append(engine.now_ms))
        engine.run()
        assert fired == [10.0]

    def test_schedule_after_is_relative(self, engine):
        engine.clock.advance_to(0.0)
        fired = []
        engine.schedule_at(5.0, lambda: engine.schedule_after(7.0, lambda: fired.append(engine.now_ms)))
        engine.run()
        assert fired == [12.0]

    def test_schedule_in_past_raises(self, engine):
        engine.schedule_at(10.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(5.0, lambda: None)

    def test_schedule_negative_delay_raises(self, engine):
        with pytest.raises(ValueError):
            engine.schedule_after(-1.0, lambda: None)

    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.schedule_at(30.0, lambda: order.append("c"))
        engine.schedule_at(10.0, lambda: order.append("a"))
        engine.schedule_at(20.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self, engine):
        order = []
        for label in "abcde":
            engine.schedule_at(5.0, lambda label=label: order.append(label))
        engine.run()
        assert order == list("abcde")

    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        event = engine.schedule_at(10.0, lambda: fired.append(1))
        event.cancel()
        engine.run()
        assert fired == []

    def test_callbacks_can_schedule_more_events(self, engine):
        fired = []

        def chain(depth: int) -> None:
            fired.append(engine.now_ms)
            if depth > 0:
                engine.schedule_after(1.0, lambda: chain(depth - 1))

        engine.schedule_at(0.0, lambda: chain(3))
        engine.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestRun:
    def test_run_returns_number_of_executed_events(self, engine):
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda: None)
        assert engine.run() == 3

    def test_run_until_horizon_stops_early(self, engine):
        fired = []
        engine.schedule_at(10.0, lambda: fired.append(10))
        engine.schedule_at(100.0, lambda: fired.append(100))
        executed = engine.run(until_ms=50.0)
        assert executed == 1
        assert fired == [10]
        # The clock advances to the horizon even if no event is there.
        assert engine.now_ms == 50.0

    def test_run_until_leaves_future_events_pending(self, engine):
        engine.schedule_at(100.0, lambda: None)
        engine.run(until_ms=50.0)
        assert engine.pending_events == 1
        engine.run()
        assert engine.pending_events == 0

    def test_processed_events_accumulates(self, engine):
        engine.schedule_at(1.0, lambda: None)
        engine.run()
        engine.schedule_at(2.0, lambda: None)
        engine.run()
        assert engine.processed_events == 2

    def test_empty_run_is_a_noop(self, engine):
        assert engine.run() == 0
        assert engine.now_ms == 0.0

    def test_repr_mentions_pending(self, engine):
        engine.schedule_at(1.0, lambda: None)
        assert "pending=1" in repr(engine)


class TestDeterminism:
    def test_two_identical_runs_produce_identical_traces(self):
        def run_once():
            engine = SimulationEngine()
            trace = []

            def tick(i: int) -> None:
                trace.append((engine.now_ms, i))
                if i < 20:
                    engine.schedule_after(float((i * 7) % 5 + 1), lambda: tick(i + 1))

            engine.schedule_at(0.0, lambda: tick(0))
            engine.run()
            return trace

        assert run_once() == run_once()


class TestHealthCounters:
    def test_cancelled_events_counts_each_event_once(self, engine):
        events = [engine.schedule_at(float(t), lambda: None) for t in (1, 2, 3)]
        events[0].cancel()
        events[1].cancel()
        assert engine.cancelled_events == 2
        assert engine.pending_events == 1

    def test_re_cancel_does_not_drift_counters(self, engine):
        event = engine.schedule_at(1.0, lambda: None)
        other = engine.schedule_at(2.0, lambda: None)
        for _ in range(5):
            event.cancel()
        assert engine.cancelled_events == 1
        assert engine.pending_events == 1
        engine.run()
        assert engine.cancelled_events == 1
        assert engine.processed_events == 1
        assert other.cancelled is False

    def test_cancelled_total_survives_run(self, engine):
        event = engine.schedule_at(1.0, lambda: None)
        event.cancel()
        engine.run()
        engine.schedule_at(2.0, lambda: None)
        engine.run()
        # the lifetime total is monotone even after the heap drains
        assert engine.cancelled_events == 1
        assert engine.pending_events == 0
