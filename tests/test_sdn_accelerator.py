"""Tests for the SDN-accelerator front-end."""

import math

import numpy as np
import pytest

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG
from repro.cloud.server import CloudInstance
from repro.mobile.tasks import DEFAULT_TASK_POOL
from repro.scenarios.plan import build_request_plan
from repro.sdn.accelerator import (
    AccelerationGroupRouting,
    DeliveryBuffer,
    RequestRecord,
    RoundRobinRouting,
    SDNAccelerator,
    draw_routing_overhead_ms,
    served_columns,
)
from repro.workload.arrival import FixedRateArrivalProcess


def make_backend(engine, types_by_level):
    backend = BackendPool()
    for level, type_name in types_by_level.items():
        backend.add_instance(CloudInstance(engine, DEFAULT_CATALOG.get(type_name)), level)
    return backend


def submit(accelerator, *, routing_ms=150.0, jitter_z=0.0, **request):
    """Submit one request over a constant 40 ms access / 10 ms intra-cloud link."""
    request.setdefault("user_id", 0)
    request.setdefault("acceleration_group", 1)
    return accelerator.submit_planned(
        t1_ms=40.0, t2_ms=10.0, routing_ms=routing_ms, jitter_z=jitter_z, **request
    )


def run_to_completion(engine, accelerator):
    engine.run()
    accelerator.delivery_buffer.flush(math.inf)


class TestRequestFlow:
    def test_successful_request_produces_full_record(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = SDNAccelerator(engine, backend)
        completed = []
        submit(
            accelerator, user_id=7, work_units=300.0, on_complete=completed.append,
        )
        run_to_completion(engine, accelerator)
        assert len(completed) == 1
        record = completed[0]
        assert record.success
        assert record.user_id == 7
        assert record.acceleration_group == 1
        breakdown = record.breakdown
        assert breakdown.t1_ms == pytest.approx(40.0)
        assert breakdown.t2_ms == pytest.approx(10.0)
        assert breakdown.routing_ms == pytest.approx(150.0)
        assert breakdown.cloud_ms > 290.0
        assert record.response_time_ms == pytest.approx(breakdown.total_ms)

    def test_completion_time_accounts_for_communication(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = SDNAccelerator(engine, backend)
        completed = []
        submit(accelerator, work_units=300.0, on_complete=completed.append)
        run_to_completion(engine, accelerator)
        record = completed[0]
        assert record.completed_ms == pytest.approx(record.arrival_ms + record.response_time_ms, rel=0.05)

    def test_request_is_logged_with_trace_schema(self, engine):
        # The Section IV-A fields the adaptive model reads: the timestamp
        # (arrival), the user and the acceleration group that served it.
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = SDNAccelerator(engine, backend)
        engine.schedule_at(
            250.0, lambda: submit(accelerator, user_id=3, acceleration_group=2, work_units=100.0)
        )
        run_to_completion(engine, accelerator)
        (record,) = accelerator.records
        assert (record.arrival_ms, record.user_id, record.acceleration_group) == (250.0, 3, 1)
        assert record.response_time_ms > 0
        routed, uids, observed = served_columns(accelerator.records, 250.0)
        assert (routed.tolist(), uids.tolist(), observed.tolist()) == ([1], [3], [True])
        assert served_columns(accelerator.records, 250.5)[2].tolist() == [False]

    def test_dropped_request_recorded_as_failure(self, engine):
        backend = BackendPool()
        backend.add_instance(
            CloudInstance(engine, DEFAULT_CATALOG.get("t2.nano"), admission_limit=1), 1
        )
        accelerator = SDNAccelerator(engine, backend)
        results = []
        for _ in range(3):
            submit(accelerator, work_units=5000.0, on_complete=results.append)
        run_to_completion(engine, accelerator)
        assert len(results) == 3
        assert sum(1 for record in results if not record.success) == 2
        assert [record.success for record in accelerator.records].count(True) == 1

    def test_invalid_work_rejected(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = SDNAccelerator(engine, backend)
        with pytest.raises(ValueError):
            submit(accelerator, work_units=0.0)

    def test_nan_work_rejected(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = SDNAccelerator(engine, backend)
        with pytest.raises(ValueError, match="work_units must be positive"):
            submit(accelerator, work_units=float("nan"))
        assert engine.pending_events == 0
        assert submit(accelerator, work_units=10.0) == 0

    def test_request_ids_increment(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = SDNAccelerator(engine, backend)
        ids = [submit(accelerator, work_units=10.0) for _ in range(3)]
        assert ids == [0, 1, 2]


class TestRoutingOverhead:
    def test_mean_overhead_is_about_150ms(self, engine, rng):
        """Fig. 8a: the front-end adds ≈150 ms regardless of group."""
        backend = make_backend(engine, {1: "t2.nano", 2: "t2.large"})
        accelerator = SDNAccelerator(engine, backend)
        routing = draw_routing_overhead_ms(rng, 300)
        assert np.mean(routing) == pytest.approx(150.0, rel=0.05)
        for index in range(300):
            engine.schedule_at(
                index * 1_000.0,
                lambda index=index: submit(
                    accelerator, user_id=index, acceleration_group=1 + index % 2,
                    work_units=50.0, routing_ms=float(routing[index]),
                ),
            )
        run_to_completion(engine, accelerator)
        assert all(record.success for record in accelerator.records)
        per_group = {}
        for record in accelerator.records:
            per_group.setdefault(record.acceleration_group, []).append(
                record.breakdown.routing_ms
            )
        assert set(per_group) == {1, 2}
        for samples in per_group.values():
            assert np.mean(samples) == pytest.approx(150.0, rel=0.1)

    def test_draw_is_floored_at_one_ms(self):
        class _FixedNormal:
            def normal(self, loc, scale, size):
                assert (loc, scale, size) == (150.0, 25.0, 3)
                return np.array([-40.0, 0.5, 175.0])

        assert draw_routing_overhead_ms(_FixedNormal(), 3).tolist() == [1.0, 1.0, 175.0]

    def test_request_plan_draws_routing_with_the_same_function(self):
        plan = build_request_plan(
            arrival_process=FixedRateArrivalProcess(rate_hz=1.0),
            task=DEFAULT_TASK_POOL.get("minimax"),
            users=3,
            duration_ms=20_000.0,
            rng_workload=np.random.default_rng(1),
            rng_routing=np.random.default_rng(2),
            rng_jitter=np.random.default_rng(3),
        )
        assert len(plan) > 0
        expected = draw_routing_overhead_ms(np.random.default_rng(2), len(plan))
        assert np.array_equal(plan.routing_ms, expected)


class TestRoutingPolicies:
    def test_acceleration_group_routing_honours_request(self, engine):
        backend = make_backend(engine, {1: "t2.nano", 2: "t2.large"})
        policy = AccelerationGroupRouting()
        assert policy.route(2, backend) == 2

    def test_acceleration_group_routing_clamps_unknown_levels(self, engine):
        backend = make_backend(engine, {2: "t2.large"})
        policy = AccelerationGroupRouting()
        assert policy.route(1, backend) == 2

    def test_round_robin_ignores_requested_group(self, engine):
        backend = make_backend(engine, {1: "t2.nano", 2: "t2.large", 3: "m4.10xlarge"})
        policy = RoundRobinRouting()
        routed = [policy.route(1, backend) for _ in range(6)]
        assert routed == [1, 2, 3, 1, 2, 3]

    def test_accelerator_uses_injected_policy(self, engine):
        backend = make_backend(engine, {1: "t2.nano", 2: "t2.large"})
        accelerator = SDNAccelerator(engine, backend, routing_policy=RoundRobinRouting())
        for _ in range(4):
            submit(accelerator, work_units=50.0)
        run_to_completion(engine, accelerator)
        groups = sorted({record.acceleration_group for record in accelerator.records})
        assert groups == [1, 2]


class TestReporting:
    def test_response_times_by_group(self, engine):
        backend = make_backend(engine, {1: "t2.nano", 3: "m4.10xlarge"})
        accelerator = SDNAccelerator(engine, backend)
        for group in (1, 3, 1, 3):
            submit(accelerator, acceleration_group=group, work_units=1000.0)
        run_to_completion(engine, accelerator)
        by_group = {}
        for record in accelerator.records:
            by_group.setdefault(record.acceleration_group, []).append(
                record.response_time_ms
            )
        assert set(by_group) == {1, 3}
        assert np.mean(by_group[3]) < np.mean(by_group[1])

    def test_records_for_user(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = SDNAccelerator(engine, backend)
        submit(accelerator, user_id=1, work_units=10.0)
        submit(accelerator, user_id=2, work_units=10.0)
        run_to_completion(engine, accelerator)
        by_user = [record.user_id for record in accelerator.records]
        assert by_user.count(1) == 1
        assert by_user.count(3) == 0


def make_record(request_id, user_id=0):
    return RequestRecord(
        request_id=request_id,
        user_id=user_id,
        acceleration_group=1,
        arrival_ms=0.0,
        completed_ms=0.0,
        success=False,
        breakdown=None,
    )


class TestDeliveryBuffer:
    def make(self, engine, buffer):
        return SDNAccelerator(engine, BackendPool(), delivery_buffer=buffer)

    def test_drain_until_delivers_strictly_before(self, engine):
        buffer = DeliveryBuffer()
        accelerator = self.make(engine, buffer)
        delivered = []
        for request_id, at_ms in enumerate((5.0, 10.0, 15.0)):
            buffer.push(at_ms, accelerator, make_record(request_id), delivered.append)
        buffer.drain_until(10.0)
        assert [record.request_id for record in delivered] == [0]
        assert len(buffer) == 2
        buffer.drain_until(10.000001)
        assert [record.request_id for record in delivered] == [0, 1]

    def test_flush_delivers_at_horizon_and_keeps_later(self, engine):
        buffer = DeliveryBuffer()
        accelerator = self.make(engine, buffer)
        for request_id, at_ms in enumerate((10.0, 20.0, 30.0)):
            buffer.push(at_ms, accelerator, make_record(request_id), None)
        buffer.flush(20.0)
        assert [record.request_id for record in accelerator.records] == [0, 1]
        assert len(buffer) == 1

    def test_equal_times_deliver_in_push_order(self, engine):
        buffer = DeliveryBuffer()
        accelerator = self.make(engine, buffer)
        delivered = []
        for request_id in (3, 1, 2, 0):
            buffer.push(7.0, accelerator, make_record(request_id), delivered.append)
        buffer.push(6.0, accelerator, make_record(9), delivered.append)
        buffer.flush(7.0)
        assert [record.request_id for record in delivered] == [9, 3, 1, 2, 0]

    def test_shared_buffer_keeps_records_per_accelerator(self, engine):
        buffer = DeliveryBuffer()
        first, second = self.make(engine, buffer), self.make(engine, buffer)
        delivered = []
        buffer.push(2.0, second, make_record(0, user_id=20), delivered.append)
        buffer.push(1.0, first, make_record(0, user_id=10), delivered.append)
        buffer.push(3.0, first, make_record(1, user_id=11), delivered.append)
        buffer.flush(math.inf)
        assert [record.user_id for record in delivered] == [10, 20, 11]
        assert [record.user_id for record in first.records] == [10, 11]
        assert [record.user_id for record in second.records] == [20]

    def test_results_wait_in_the_buffer_until_drained(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = SDNAccelerator(engine, backend)
        completed = []
        submit(accelerator, work_units=100.0, on_complete=completed.append)
        engine.run()
        assert completed == [] and accelerator.records == []
        assert len(accelerator.delivery_buffer) == 1
        accelerator.delivery_buffer.drain_until(math.inf)
        assert len(completed) == 1 and accelerator.records == completed


class TestFloatExpressions:
    """The exact float expressions of the event path, pinned bit for bit.

    The values are chosen so that re-associating either sum gives other
    bits; a flattening that regroups one of them fails here instead of
    moving a record pin.
    """

    ARRIVAL_MS, T1_MS, T2_MS, ROUTING_MS, WORK = 4834.638, 82.766, 8.8, 146.041, 516.1

    class RecordingPool(BackendPool):
        """Notes the instant of each dispatch and each back-end outcome."""

        def __init__(self, engine):
            super().__init__()
            self.engine = engine
            self.dispatched_ms = []
            self.outcomes = []

        def dispatch(self, level, work_units, on_complete, jitter_z):
            self.dispatched_ms.append(self.engine.now_ms)

            def _noted(outcome):
                self.outcomes.append(outcome)
                on_complete(outcome)

            return super().dispatch(level, work_units, _noted, jitter_z)

    def run_one(self, engine):
        pool = self.RecordingPool(engine)
        instance_type = DEFAULT_CATALOG.get("t2.nano")
        pool.add_instance(CloudInstance(engine, instance_type), 1)
        accelerator = SDNAccelerator(engine, pool)
        completed = []
        engine.schedule_at(
            self.ARRIVAL_MS,
            lambda: accelerator.submit_planned(
                user_id=0,
                acceleration_group=1,
                work_units=self.WORK,
                t1_ms=self.T1_MS,
                t2_ms=self.T2_MS,
                routing_ms=self.ROUTING_MS,
                jitter_z=0.0,
                on_complete=completed.append,
            ),
        )
        run_to_completion(engine, accelerator)
        return pool, instance_type, accelerator, completed

    def test_dispatch_and_delivery_instants(self, engine):
        pool, instance_type, _, completed = self.run_one(engine)
        arrival, routing = self.ARRIVAL_MS, self.ROUTING_MS
        half = (self.T1_MS + self.T2_MS) / 2.0
        assert arrival + (half + routing) != (arrival + half) + routing
        (dispatched_ms,) = pool.dispatched_ms
        assert dispatched_ms.hex() == (arrival + (half + routing)).hex()
        (outcome,) = pool.outcomes
        # Cloud time is the server's sojourn plus the fixed overhead.
        sojourn_ms = outcome.completed_at_ms - dispatched_ms
        expected_cloud = sojourn_ms + instance_type.profile.base_overhead_ms
        assert outcome.execution_time_ms.hex() == expected_cloud.hex()
        (record,) = completed
        assert record.completed_ms.hex() == (outcome.completed_at_ms + half).hex()
        assert record.breakdown.cloud_ms.hex() == outcome.execution_time_ms.hex()

    def test_response_time_sums_left_to_right(self, engine):
        _, _, accelerator, completed = self.run_one(engine)
        (record,) = completed
        t1, t2, routing = self.T1_MS, self.T2_MS, self.ROUTING_MS
        cloud = record.breakdown.cloud_ms
        assert t1 + t2 + routing + cloud != t1 + (t2 + (routing + cloud))
        expected = (t1 + t2 + routing + cloud).hex()
        assert record.response_time_ms.hex() == expected
