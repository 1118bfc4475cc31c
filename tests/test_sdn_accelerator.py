"""Tests for the SDN-accelerator front-end."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG
from repro.cloud.server import CloudInstance
from repro.mobile.tasks import DEFAULT_TASK_POOL
from repro.scenarios.plan import build_request_plan
from repro.simulation.engine import SimulationEngine
from repro.sdn.accelerator import (
    AccelerationGroupRouting,
    DeliveryBuffer,
    RequestColumns,
    RoundRobinRouting,
    SDNAccelerator,
    draw_routing_overhead_ms,
)
from repro.workload.arrival import FixedRateArrivalProcess


def make_backend(engine, types_by_level):
    backend = BackendPool()
    for level, type_name in types_by_level.items():
        backend.add_instance(CloudInstance(engine, DEFAULT_CATALOG.get(type_name)), level)
    return backend


def make_accelerator(engine, backend, rows=400, **options):
    """A front-end whose ``deliveries`` list notes each delivery callback."""
    deliveries = []
    accelerator = SDNAccelerator(
        engine,
        backend,
        RequestColumns(rows),
        on_deliver=lambda *delivery: deliveries.append(delivery),
        **options,
    )
    accelerator.deliveries = deliveries
    return accelerator


def submit(accelerator, *, row=0, routing_ms=150.0, jitter_z=0.0, **request):
    """Submit one request over a constant 40 ms access / 10 ms intra-cloud link."""
    request.setdefault("acceleration_group", 1)
    return accelerator.submit_planned(
        row=row, t1_ms=40.0, t2_ms=10.0, routing_ms=routing_ms, jitter_z=jitter_z, **request
    )


def run_to_completion(engine, accelerator):
    engine.run()
    accelerator.delivery_buffer.flush(math.inf)


def delivered(accelerator):
    return np.asarray(accelerator.delivered, dtype=np.int64)


class TestRequestFlow:
    def test_successful_request_produces_full_record(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = make_accelerator(engine, backend)
        submit(accelerator, row=7, work_units=300.0)
        run_to_completion(engine, accelerator)
        ((row, response_ms, _),) = accelerator.deliveries
        assert row == 7 and accelerator.delivered == [7]
        columns = accelerator.columns
        assert columns.success[7]
        assert columns.requested_group[7] == columns.served_group[7] == 1
        assert columns.cloud_ms[7] > 290.0
        assert columns.response_ms[7] == response_ms
        assert response_ms == pytest.approx(40.0 + 10.0 + 150.0 + columns.cloud_ms[7])
        # Only the submitted row is written.
        assert np.count_nonzero(columns.success) == 1
        assert np.count_nonzero(columns.response_ms) == 1

    def test_completion_time_accounts_for_communication(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = make_accelerator(engine, backend)
        engine.schedule_at(100.0, lambda: submit(accelerator, work_units=300.0))
        run_to_completion(engine, accelerator)
        ((_, response_ms, delivered_ms),) = accelerator.deliveries
        assert delivered_ms == pytest.approx(100.0 + response_ms, rel=0.05)

    def test_request_is_logged_with_trace_schema(self, engine):
        # The Section IV-A fields the adaptive model reads: the user and the
        # timestamp (arrival) come from the caller's row; the front-end
        # records the acceleration group that served it.
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = make_accelerator(engine, backend)
        engine.schedule_at(
            250.0, lambda: submit(accelerator, row=3, acceleration_group=2, work_units=100.0)
        )
        run_to_completion(engine, accelerator)
        assert accelerator.delivered == [3]
        columns = accelerator.columns
        assert (columns.requested_group[3], columns.served_group[3]) == (2, 1)
        assert columns.response_ms[3] > 0

    def test_dropped_request_recorded_as_failure(self, engine):
        backend = BackendPool()
        backend.add_instance(
            CloudInstance(engine, DEFAULT_CATALOG.get("t2.nano"), admission_limit=1), 1
        )
        accelerator = make_accelerator(engine, backend)
        for row in range(3):
            submit(accelerator, row=row, work_units=5000.0)
        run_to_completion(engine, accelerator)
        assert len(accelerator.deliveries) == 3
        assert [response for _, response, _ in accelerator.deliveries].count(None) == 2
        rows = delivered(accelerator)
        columns = accelerator.columns
        assert np.count_nonzero(columns.success[rows]) == 1
        dropped = rows[~columns.success[rows]]
        assert columns.response_ms[dropped].tolist() == [0.0, 0.0]
        assert columns.cloud_ms[dropped].tolist() == [0.0, 0.0]

    def test_invalid_work_rejected(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = make_accelerator(engine, backend)
        with pytest.raises(ValueError):
            submit(accelerator, work_units=0.0)

    def test_nan_work_rejected(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = make_accelerator(engine, backend)
        with pytest.raises(ValueError, match="work_units must be positive"):
            submit(accelerator, work_units=float("nan"))
        assert engine.pending_events == 0
        assert accelerator.columns.served_group[0] == 0
        submit(accelerator, work_units=10.0)
        assert engine.pending_events == 1

    def test_rows_index_the_columns(self, engine):
        backend = make_backend(engine, {1: "t2.nano", 2: "t2.large"})
        accelerator = make_accelerator(engine, backend, rows=3)
        submit(accelerator, row=2, acceleration_group=2, work_units=10.0)
        submit(accelerator, row=0, acceleration_group=1, work_units=10.0)
        run_to_completion(engine, accelerator)
        columns = accelerator.columns
        assert columns.served_group.tolist() == [1, 0, 2]
        assert columns.success.tolist() == [True, False, True]
        assert sorted(accelerator.delivered) == [0, 2]


class TestRoutingOverhead:
    def test_mean_overhead_is_about_150ms(self, engine, rng):
        """Fig. 8a: the front-end adds ≈150 ms regardless of group."""
        backend = make_backend(engine, {1: "t2.nano", 2: "t2.large"})
        accelerator = make_accelerator(engine, backend)
        routing = draw_routing_overhead_ms(rng, 300)
        assert np.mean(routing) == pytest.approx(150.0, rel=0.05)
        for index in range(300):
            engine.schedule_at(
                index * 1_000.0,
                lambda index=index: submit(
                    accelerator, row=index, acceleration_group=1 + index % 2,
                    work_units=50.0, routing_ms=float(routing[index]),
                ),
            )
        run_to_completion(engine, accelerator)
        columns = accelerator.columns
        assert len(accelerator.delivered) == 300 and columns.success[:300].all()
        served = columns.served_group[:300]
        assert set(served.tolist()) == {1, 2}
        for group in (1, 2):
            assert np.mean(routing[served == group]) == pytest.approx(150.0, rel=0.1)

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
        accelerator = make_accelerator(engine, backend, routing_policy=RoundRobinRouting())
        for row in range(4):
            submit(accelerator, row=row, work_units=50.0)
        run_to_completion(engine, accelerator)
        assert accelerator.columns.served_group[:4].tolist() == [1, 2, 1, 2]
        assert accelerator.columns.requested_group[:4].tolist() == [1, 1, 1, 1]


class TestReporting:
    def test_response_times_by_group(self, engine):
        backend = make_backend(engine, {1: "t2.nano", 3: "m4.10xlarge"})
        accelerator = make_accelerator(engine, backend)
        for row, group in enumerate((1, 3, 1, 3)):
            submit(accelerator, row=row, acceleration_group=group, work_units=1000.0)
        run_to_completion(engine, accelerator)
        rows = delivered(accelerator)
        columns = accelerator.columns
        served, responses = columns.served_group[rows], columns.response_ms[rows]
        assert set(served.tolist()) == {1, 3}
        assert responses[served == 3].mean() < responses[served == 1].mean()

    def test_records_for_user(self, engine):
        # The caller owns each row's user; the delivered rows select a
        # user's results from the columns.
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = make_accelerator(engine, backend)
        user_of_row = np.asarray([1, 2, 1])
        for row in range(3):
            submit(accelerator, row=row, work_units=10.0)
        run_to_completion(engine, accelerator)
        rows = delivered(accelerator)
        users = user_of_row[rows]
        assert sorted(rows[users == 1].tolist()) == [0, 2]
        assert accelerator.columns.success[rows[users == 1]].all()
        assert not (users == 3).any()


class TestDeliveryBuffer:
    def make(self, engine, buffer, delivered=None):
        callback = None if delivered is None else lambda *entry: delivered.append(entry)
        return SDNAccelerator(
            engine, BackendPool(), RequestColumns(0), delivery_buffer=buffer,
            on_deliver=callback,
        )

    def test_drain_until_delivers_strictly_before(self, engine):
        buffer = DeliveryBuffer()
        delivered = []
        accelerator = self.make(engine, buffer, delivered)
        for row, at_ms in enumerate((5.0, 10.0, 15.0)):
            buffer.push(at_ms, accelerator, row, None)
        buffer.drain_until(10.0)
        assert delivered == [(0, None, 5.0)]
        assert len(buffer) == 2
        buffer.drain_until(10.000001)
        assert [row for row, _, _ in delivered] == [0, 1]

    def test_flush_delivers_at_horizon_and_keeps_later(self, engine):
        buffer = DeliveryBuffer()
        accelerator = self.make(engine, buffer)
        for row, at_ms in enumerate((10.0, 20.0, 30.0)):
            buffer.push(at_ms, accelerator, row, None)
        buffer.flush(20.0)
        assert accelerator.delivered == [0, 1]
        assert len(buffer) == 1

    def test_equal_times_deliver_in_push_order(self, engine):
        buffer = DeliveryBuffer()
        delivered = []
        accelerator = self.make(engine, buffer, delivered)
        for row in (3, 1, 2, 0):
            buffer.push(7.0, accelerator, row, float(row))
        buffer.push(6.0, accelerator, 9, None)
        buffer.flush(7.0)
        assert delivered == [(9, None, 6.0), (3, 3.0, 7.0), (1, 1.0, 7.0), (2, 2.0, 7.0), (0, 0.0, 7.0)]
        assert accelerator.delivered == [9, 3, 1, 2, 0]

    def test_shared_buffer_keeps_records_per_accelerator(self, engine):
        buffer = DeliveryBuffer()
        delivered = []
        first = self.make(engine, buffer, delivered)
        second = self.make(engine, buffer, delivered)
        buffer.push(2.0, second, 20, None)
        buffer.push(1.0, first, 10, None)
        buffer.push(3.0, first, 11, None)
        buffer.flush(math.inf)
        assert [row for row, _, _ in delivered] == [10, 20, 11]
        assert first.delivered == [10, 11]
        assert second.delivered == [20]

    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4).map(float),
                st.lists(st.integers(min_value=0, max_value=6).map(float), max_size=4),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_delivery_instants_never_decrease(self, steps):
        # As on the event path: each result is pushed at or after the current
        # instant, and the buffer drains strictly before the instant.  So the
        # delivery order is the completion order the figure modules read.
        buffer = DeliveryBuffer()
        delivered = []
        accelerator = self.make(SimulationEngine(), buffer, delivered)
        now_ms, row = 0.0, 0
        for advance_ms, delays_ms in steps:
            now_ms += advance_ms
            buffer.drain_until(now_ms)
            for delay_ms in delays_ms:
                buffer.push(now_ms + delay_ms, accelerator, row, None)
                row += 1
        buffer.flush(math.inf)
        instants = [at_ms for _, _, at_ms in delivered]
        assert instants == sorted(instants)
        assert sorted(accelerator.delivered) == list(range(row))

    def test_results_wait_in_the_buffer_until_drained(self, engine):
        backend = make_backend(engine, {1: "t2.nano"})
        accelerator = make_accelerator(engine, backend)
        submit(accelerator, work_units=100.0)
        engine.run()
        assert accelerator.deliveries == [] and accelerator.delivered == []
        assert len(accelerator.delivery_buffer) == 1
        accelerator.delivery_buffer.drain_until(math.inf)
        assert len(accelerator.deliveries) == 1 and accelerator.delivered == [0]


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
        accelerator = make_accelerator(engine, pool, rows=1)
        engine.schedule_at(
            self.ARRIVAL_MS,
            lambda: accelerator.submit_planned(
                row=0,
                acceleration_group=1,
                work_units=self.WORK,
                t1_ms=self.T1_MS,
                t2_ms=self.T2_MS,
                routing_ms=self.ROUTING_MS,
                jitter_z=0.0,
            ),
        )
        run_to_completion(engine, accelerator)
        return pool, instance_type, accelerator

    def test_dispatch_and_delivery_instants(self, engine):
        pool, instance_type, accelerator = self.run_one(engine)
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
        ((_, _, delivered_ms),) = accelerator.deliveries
        assert delivered_ms.hex() == (outcome.completed_at_ms + half).hex()
        assert float(accelerator.columns.cloud_ms[0]).hex() == outcome.execution_time_ms.hex()

    def test_response_time_sums_left_to_right(self, engine):
        _, _, accelerator = self.run_one(engine)
        ((_, response_ms, _),) = accelerator.deliveries
        t1, t2, routing = self.T1_MS, self.T2_MS, self.ROUTING_MS
        cloud = float(accelerator.columns.cloud_ms[0])
        assert t1 + t2 + routing + cloud != t1 + (t2 + (routing + cloud))
        expected = (t1 + t2 + routing + cloud).hex()
        # The moderator gets a Python float; the column keeps the same bits.
        assert type(response_ms) is float and response_ms.hex() == expected
        assert float(accelerator.columns.response_ms[0]).hex() == expected
