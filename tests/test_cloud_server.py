"""Tests for the simulated cloud instance server."""

import pytest

from repro.cloud.catalog import DEFAULT_CATALOG
from repro.cloud.server import CloudInstance
from repro.simulation.randomness import RandomStreams


def make_instance(engine, type_name="t2.nano", **kwargs):
    return CloudInstance(engine, DEFAULT_CATALOG.get(type_name), **kwargs)


class TestSubmission:
    def test_single_request_completes_with_execution_time(self, engine):
        instance = make_instance(engine)
        outcomes = []
        assert instance.submit(300.0, outcomes.append, 0.0) is None
        engine.run()
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.accepted
        assert outcome.instance_id == instance.instance_id
        # 300 work units at speed 1.0 plus the 5 ms base overhead.
        assert outcome.execution_time_ms == pytest.approx(305.0, rel=0.01)

    def test_jitter_changes_execution_time_but_not_determinism(self):
        from repro.simulation.engine import SimulationEngine

        def run(jitter):
            engine = SimulationEngine()
            instance = make_instance(engine)
            results = []
            for z in jitter:
                instance.submit(300.0, lambda o: results.append(o.execution_time_ms), float(z))
            engine.run()
            return results

        a = run(RandomStreams(5).stream("x").standard_normal(5))
        b = run(RandomStreams(5).stream("x").standard_normal(5))
        assert a == b
        assert a != run([0.0] * 5)

    def test_concurrent_requests_slow_each_other_down(self, engine):
        instance = make_instance(engine, type_name="t2.nano")
        outcomes = []
        for _ in range(9):  # 9 jobs on 3 effective cores -> 3x slowdown
            instance.submit(300.0, outcomes.append, 0.0)
        engine.run()
        assert len(outcomes) == 9
        assert all(o.execution_time_ms > 600.0 for o in outcomes)

    def test_rejects_when_admission_limit_reached(self, engine):
        instance = make_instance(engine, admission_limit=2)
        accepted, rejected = [], []
        for _ in range(4):
            outcome = instance.submit(500.0, accepted.append, 0.0)
            if outcome is not None:
                rejected.append(outcome)
        assert len(rejected) == 2
        assert all(not o.accepted for o in rejected)
        assert instance.dropped_requests == 2
        engine.run()
        assert len(accepted) == 2

    def test_invalid_work_rejected(self, engine):
        instance = make_instance(engine)
        with pytest.raises(ValueError):
            instance.submit(-1.0, lambda o: None, 0.0)

    def test_jitter_draw_is_required(self, engine):
        with pytest.raises(TypeError):
            make_instance(engine).submit(10.0, lambda o: None)

    def test_submit_after_terminate_raises(self, engine):
        instance = make_instance(engine)
        instance.terminate()
        with pytest.raises(RuntimeError):
            instance.submit(10.0, lambda o: None, 0.0)


class TestAccounting:
    def test_counters_track_accept_drop_complete(self, engine):
        instance = make_instance(engine, admission_limit=3)
        for _ in range(5):
            instance.submit(100.0, lambda o: None, 0.0)
        engine.run()
        assert instance.accepted_requests == 3
        assert instance.dropped_requests == 2
        assert instance.completed_requests == 3

    def test_utilization(self, engine):
        instance = make_instance(engine, admission_limit=10)
        for _ in range(5):
            instance.submit(1000.0, lambda o: None, 0.0)
        assert instance.in_service / instance.admission_limit == pytest.approx(0.5)
        engine.run()
        assert instance.in_service == 0

    def test_faster_type_executes_faster(self, engine):
        nano_times, big_times = [], []
        nano = make_instance(engine, "t2.nano")
        big = make_instance(engine, "m4.10xlarge")
        nano.submit(1000.0, lambda o: nano_times.append(o.execution_time_ms), 0.0)
        big.submit(1000.0, lambda o: big_times.append(o.execution_time_ms), 0.0)
        engine.run()
        assert big_times[0] < nano_times[0]
        assert nano_times[0] / big_times[0] == pytest.approx(1.73, rel=0.05)

    def test_acceleration_level_comes_from_type(self, engine):
        assert make_instance(engine, "t2.large").acceleration_level == 2

    def test_unique_instance_ids(self, engine):
        ids = {make_instance(engine).instance_id for _ in range(10)}
        assert len(ids) == 10

    def test_is_running_and_terminate(self, engine):
        instance = make_instance(engine)
        assert instance.is_running
        instance.terminate()
        assert not instance.is_running
        assert instance.terminated_at_ms == engine.now_ms
