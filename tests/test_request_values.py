"""The per-request values of the event path: immutable, same fields, same checks.

Each offloaded request builds one back-end outcome, and each delivered one a
promotion decision.  They are named tuples because they are built per
request; these tests pin what the frozen dataclasses they replaced
guaranteed: attributes cannot be assigned, the field names and their order
are unchanged.  What the front-end records of a request goes into columns
(:class:`~repro.sdn.accelerator.RequestColumns`), not a value.

The paper's per-request trace row (Section IV-A) is not built: the columns
and the request plan carry the fields the adaptive model reads.  The checks
the trace row made on its five fields are made where each value is produced;
``TestTraceFieldGuards`` pins each of them.
"""

import pickle

import pytest

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG
from repro.cloud.server import CloudInstance, OffloadOutcome
from repro.mobile.battery import BatteryModel
from repro.mobile.device import DEVICE_PROFILES, MobileDevice
from repro.mobile.moderator import PromotionDecision
from repro.sdn.accelerator import RequestColumns, SDNAccelerator
from repro.simulation.clock import SimulationClock
from repro.simulation.engine import SimulationEngine

VALUES = {
    "OffloadOutcome": (
        OffloadOutcome(3, "t2.nano-0", True, 1234.5, 99.0),
        ("request_id", "instance_id", "accepted", "execution_time_ms", "completed_at_ms"),
    ),
    "PromotionDecision": (
        PromotionDecision(True, "static probability 0.0200"),
        ("promote", "reason"),
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
class TestRequestValues:
    def test_attributes_cannot_be_assigned(self, name):
        value, fields = VALUES[name]
        with pytest.raises(AttributeError):
            setattr(value, fields[0], getattr(value, fields[0]))
        with pytest.raises(AttributeError):
            value.not_a_field = 1

    def test_field_names_and_order_are_unchanged(self, name):
        value, fields = VALUES[name]
        assert type(value)._fields == fields
        assert tuple(getattr(value, field) for field in fields) == tuple(value)

    def test_pickle_round_trip(self, name):
        value, _ = VALUES[name]
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value
        assert type(clone) is type(value)


class TestDerivedValues:
    def test_response_time_sums_the_breakdown(self):
        # Row 0 completes, row 1 is dropped at admission (limit 1).
        engine = SimulationEngine()
        backend = BackendPool()
        backend.add_instance(
            CloudInstance(engine, DEFAULT_CATALOG.get("t2.nano"), admission_limit=1), 1
        )
        columns = RequestColumns(2)
        accelerator = SDNAccelerator(engine, backend, columns)
        for row in range(2):
            accelerator.submit_planned(
                row=row, acceleration_group=1, work_units=500.0,
                t1_ms=40.0, t2_ms=8.0, routing_ms=150.0, jitter_z=0.0,
            )
        engine.run()
        accelerator.delivery_buffer.flush(float("inf"))
        assert columns.success.tolist() == [True, False]
        cloud_ms = float(columns.cloud_ms[0])
        assert cloud_ms > 0.0
        assert columns.response_ms[0] == 40.0 + 8.0 + 150.0 + cloud_ms
        assert (columns.response_ms[1], columns.cloud_ms[1]) == (0.0, 0.0)

    def test_promotion_reason_defaults_to_empty(self):
        assert PromotionDecision(False) == (False, "")


def _device(**fields):
    return MobileDevice(
        **dict(dict(user_id=0, profile=DEVICE_PROFILES["wearable"], acceleration_group=1), **fields)
    )


class TestTraceFieldGuards:
    """Each field of the paper's trace row is checked where it is produced."""

    def test_timestamp_is_never_negative(self):
        # A request's timestamp is the clock at submission: the clock cannot
        # start below zero or move back, and no event is scheduled before it.
        with pytest.raises(ValueError, match="negative"):
            SimulationClock(start_ms=-1.0)
        engine = SimulationEngine()
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="past"):
                engine.schedule_at(bad, lambda: None)

    def test_user_id_is_never_negative(self):
        # The executors submit only for users that have a device.
        with pytest.raises(ValueError, match="user_id"):
            _device(user_id=-1)

    def test_acceleration_group_is_never_negative(self):
        # The serving-group column holds a level of the back-end pool.
        with pytest.raises(ValueError, match="acceleration level"):
            BackendPool().add_instance(
                CloudInstance(SimulationEngine(), DEFAULT_CATALOG.get("t2.nano")), -1
            )
        with pytest.raises(ValueError, match="acceleration_group"):
            _device(acceleration_group=-1)

    def test_battery_level_stays_in_unit_interval(self):
        for bad in (-0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match="level"):
                BatteryModel(level=bad)
        # Draining is the only other writer: it floors the level at zero.
        battery = BatteryModel(level=0.5)
        assert battery.drain_offload(1e15) == 0.0
        assert battery.drain_offload(float("inf")) == 0.0

    def test_round_trip_time_is_never_negative(self):
        # Every delivered response reaches its device before any use.
        device = _device()
        with pytest.raises(ValueError, match="response_time_ms"):
            device.record_response(-1.0)
        with pytest.raises(ValueError, match="response_time_ms"):
            device.record_responses([2.0, -1.0])
        assert device.responses_recorded == 0
        assert not device.recent_responses_ms
