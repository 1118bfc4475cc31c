"""The per-request values of the event path: immutable, same fields, same checks.

Each offloaded request builds one value of each of these types.  They are
named tuples because they are built per request; these tests pin what the
frozen dataclasses they replaced guaranteed: attributes cannot be assigned,
the field names and their order are unchanged, and ``TraceRecord`` still
validates on construction.
"""

import pickle

import pytest

from repro.cloud.server import OffloadOutcome
from repro.mobile.moderator import PromotionDecision
from repro.network.channel import ResponseTimeBreakdown
from repro.sdn.accelerator import RequestRecord
from repro.workload.traces import TraceRecord

BREAKDOWN = ResponseTimeBreakdown(40.0, 8.0, 150.0, 2000.0)

VALUES = {
    "OffloadOutcome": (
        OffloadOutcome(3, "t2.nano-0", True, 1234.5, 99.0),
        ("request_id", "instance_id", "accepted", "execution_time_ms", "completed_at_ms"),
    ),
    "ResponseTimeBreakdown": (
        BREAKDOWN,
        ("t1_ms", "t2_ms", "routing_ms", "cloud_ms"),
    ),
    "RequestRecord": (
        RequestRecord(7, 2, 1, "fibonacci", 10.0, 2300.0, True, BREAKDOWN),
        (
            "request_id",
            "user_id",
            "acceleration_group",
            "task_name",
            "arrival_ms",
            "completed_ms",
            "success",
            "breakdown",
        ),
    ),
    "TraceRecord": (
        TraceRecord(10.0, 2, 1, 0.5, 2198.0),
        (
            "timestamp_ms",
            "user_id",
            "acceleration_group",
            "battery_level",
            "round_trip_time_ms",
        ),
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
        record, _ = VALUES["RequestRecord"]
        assert record.response_time_ms == 40.0 + 8.0 + 150.0 + 2000.0
        assert record.response_time_ms == BREAKDOWN.total_ms
        dropped = record._replace(success=False, breakdown=None)
        assert dropped.response_time_ms == 0.0

    def test_promotion_reason_defaults_to_empty(self):
        assert PromotionDecision(False) == (False, "")


class TestTraceRecordValidation:
    GOOD = dict(
        timestamp_ms=0.0,
        user_id=0,
        acceleration_group=1,
        battery_level=1.0,
        round_trip_time_ms=1.0,
    )

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("timestamp_ms", -1.0),
            ("user_id", -1),
            ("acceleration_group", -1),
            ("battery_level", 1.5),
            ("battery_level", float("nan")),
            ("round_trip_time_ms", -1.0),
        ],
    )
    def test_every_construction_path_validates(self, field, bad):
        fields = dict(self.GOOD, **{field: bad})
        with pytest.raises(ValueError, match=field):
            TraceRecord(**fields)
        with pytest.raises(ValueError, match=field):
            TraceRecord(*fields.values())
        with pytest.raises(ValueError, match=field):
            TraceRecord._make(fields.values())
        with pytest.raises(ValueError, match=field):
            TraceRecord(**self.GOOD)._replace(**{field: bad})

    def test_valid_record_keeps_its_values(self):
        record = TraceRecord(**self.GOOD)
        assert record._asdict() == self.GOOD
