"""Spec validation and round-trip tests for the scenario engine."""

import collections.abc
import dataclasses
import json
import typing

import numpy as np
import pytest

import repro.faults.spec
import repro.multisite.spec
import repro.scenarios.spec
from repro.cloud.catalog import DEFAULT_CATALOG
from repro.faults.spec import ControlPlaneFaults, RetryPolicy
from repro.multisite.spec import SiteSpec
from repro.scenarios import (
    ARRIVAL_PATTERNS,
    CloudSpec,
    DeviceMixSpec,
    NetworkSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.scenarios.rules import RULE
from repro.telemetry.record import spec_hash


class TestWorkloadSpec:
    def test_defaults_are_valid(self):
        spec = WorkloadSpec()
        assert spec.pattern in ARRIVAL_PATTERNS

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            WorkloadSpec(pattern="thundering-herd")

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="target_requests"):
            WorkloadSpec(target_requests=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"burst_factor": 0.5},
            {"burst_start": 1.5},
            {"burst_duration": 0.0},
            {"burst_count": 0},
            {"trough_factor": 0.0},
            {"peak_hour": 24.0},
        ],
    )
    def test_rejects_out_of_range_shape_parameters(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)


class TestDeviceMixSpec:
    def test_default_covers_all_profiles(self):
        spec = DeviceMixSpec()
        assert "wearable" in spec.weights

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown device profile"):
            DeviceMixSpec(weights={"quantum-phone": 1.0})

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError, match="positive"):
            DeviceMixSpec(weights={"wearable": 0.0})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match=">= 0"):
            DeviceMixSpec(weights={"wearable": -1.0})


class TestCloudSpec:
    def test_rejects_unknown_instance_type(self):
        with pytest.raises(ValueError, match="unknown instance type"):
            CloudSpec(group_types={1: "z9.mega"})

    def test_unknown_instance_type_message_lists_the_catalog_sorted(self):
        known = sorted(instance_type.name for instance_type in DEFAULT_CATALOG)
        assert "t2.nano" in known
        with pytest.raises(ValueError) as caught:
            CloudSpec(group_types={1: "z9.mega"})
        assert str(caught.value) == f"unknown instance type 'z9.mega'; known: {known}"

    def test_rejects_unknown_price_multiplier_target(self):
        with pytest.raises(ValueError, match="price multiplier"):
            CloudSpec(price_multipliers={"z9.mega": 2.0})

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError, match="positive"):
            CloudSpec(price_multipliers={"t2.nano": 0.0})

    def test_rejects_empty_groups(self):
        with pytest.raises(ValueError, match="at least one"):
            CloudSpec(group_types={})

    def test_rejects_same_type_in_two_groups(self):
        with pytest.raises(ValueError, match="distinct instance type"):
            CloudSpec(group_types={1: "t2.nano", 2: "t2.nano"})

    @pytest.mark.parametrize(
        "key", [1.7, 2.0, True, False, 0, -1, "1.5", "x", None, float("nan")]
    )
    def test_rejects_bad_group_key(self, key):
        message = f"acceleration group must be >= 1 and integral, got {key!r}"
        with pytest.raises(ValueError) as caught:
            CloudSpec(group_types={key: "t2.nano"})
        assert str(caught.value) == message

    def test_rejects_keys_naming_one_group_twice(self):
        with pytest.raises(ValueError, match="groups must be distinct"):
            CloudSpec(group_types={"2": "t2.nano", 2: "t2.large"})

    def test_accepts_integral_and_json_string_keys(self):
        cloud = CloudSpec(group_types={"2": "t2.nano", np.int64(3): "t2.large"})
        assert cloud.group_types == {2: "t2.nano", 3: "t2.large"}
        assert all(type(group) is int for group in cloud.group_types)

    def test_json_round_trip_keeps_spec_hash(self):
        spec = ScenarioSpec(
            name="json-groups", cloud=CloudSpec(group_types={1: "t2.nano", 2: "t2.large"})
        )
        clone = ScenarioSpec(**json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert spec_hash(clone) == spec_hash(spec)


class TestNetworkSpec:
    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            NetworkSpec(profile="5g")

    def test_rejects_degradation_below_one(self):
        with pytest.raises(ValueError, match="degradation"):
            NetworkSpec(degradation=0.5)


class TestPolicySpec:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="predictor_strategy"):
            PolicySpec(predictor_strategy="oracle")

    def test_rejects_min_history_below_two(self):
        with pytest.raises(ValueError, match="min_history"):
            PolicySpec(min_history=1)

    def test_rejects_unknown_promotion(self):
        with pytest.raises(ValueError, match="promotion"):
            PolicySpec(promotion="teleport")

    def test_rejects_unknown_routing(self):
        with pytest.raises(ValueError, match="routing"):
            PolicySpec(routing="random")


class TestScenarioSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec(name="")

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            ScenarioSpec(name="x", task_name="mine-bitcoin")

    def test_rejects_fewer_requests_than_users(self):
        with pytest.raises(ValueError, match="target_requests"):
            ScenarioSpec(name="x", users=50, workload=WorkloadSpec(target_requests=10))

    def test_derived_quantities(self):
        spec = ScenarioSpec(name="x", duration_hours=2.0, slot_minutes=30.0)
        assert spec.duration_ms == 2 * 3_600_000.0
        assert spec.slot_length_ms == 30 * 60_000.0
        assert spec.periods == 4

    def test_periods_rounds_up_partial_slot(self):
        spec = ScenarioSpec(name="x", duration_hours=1.25, slot_minutes=30.0)
        assert spec.periods == 3

    def test_round_trips_through_dict(self):
        spec = ScenarioSpec(
            name="round-trip",
            description="d",
            users=10,
            duration_hours=0.5,
            seed=3,
            workload=WorkloadSpec(pattern="flash-crowd", target_requests=100),
            devices=DeviceMixSpec(weights={"wearable": 2.0, "tablet": 1.0}),
            cloud=CloudSpec(price_multipliers={"t2.large": 2.0}),
            network=NetworkSpec(profile="3g"),
            policy=PolicySpec(promotion="threshold"),
        )
        assert ScenarioSpec(**spec.to_dict()) == spec

    def test_with_overrides_replaces_only_given_fields(self):
        spec = ScenarioSpec(name="x", users=60)
        bumped = spec.with_overrides(users=10, target_requests=120, seed=9)
        assert bumped.users == 10
        assert bumped.workload.target_requests == 120
        assert bumped.seed == 9
        assert bumped.duration_hours == spec.duration_hours
        assert spec.users == 60  # original untouched

    def test_specs_are_frozen(self):
        spec = ScenarioSpec(name="x")
        with pytest.raises(AttributeError):
            spec.users = 5


#: (builder, field named in the error) for every validated numeric field.
_NAN_CASES = [
    (lambda v: WorkloadSpec(burst_factor=v), "burst_factor"),
    (lambda v: DeviceMixSpec(weights={"tablet": v}), "weight"),
    (lambda v: CloudSpec(response_threshold_ms=v), "response_threshold_ms"),
    (lambda v: CloudSpec(boot_delay_ms=v), "boot_delay_ms"),
    (lambda v: CloudSpec(price_multipliers={"t2.nano": v}), "price multiplier"),
    (lambda v: NetworkSpec(constant_rtt_ms=v), "constant_rtt_ms"),
    (lambda v: NetworkSpec(degradation=v), "degradation"),
    (lambda v: PolicySpec(promotion_threshold_ms=v), "promotion_threshold_ms"),
    (lambda v: ScenarioSpec(name="x", duration_hours=v), "duration_hours"),
    (lambda v: ScenarioSpec(name="x", slot_minutes=v), "slot_minutes"),
    # Integer fields: ``nan < 1`` is false, so NaN needs the integral rule.
    (lambda v: dataclasses.replace(ScenarioSpec(name="x"), users=v), "users"),
    (lambda v: WorkloadSpec(target_requests=v), "target_requests"),
    (lambda v: WorkloadSpec(burst_count=v), "burst_count"),
    (lambda v: CloudSpec(instance_cap=v), "instance_cap"),
    (
        lambda v: ScenarioSpec(name="x", cloud={"initial_instances_per_group": v}),
        "initial_instances_per_group",
    ),
    (lambda v: PolicySpec(min_history=v), "min_history"),
    (lambda v: ScenarioSpec(name="x", seed=v), "seed"),
    (lambda v: ControlPlaneFaults(snapshot_delay_slots=v), "snapshot_delay_slots"),
]

#: Every unbounded field at infinity: the slot count and the allocator's
#: capacities overflow, and an infinite RTT, weight or backoff turns into NaN
#: arithmetic or requests lost past the horizon.
_INF_CASES = [
    case
    for case in _NAN_CASES
    if case[1] in (
        "response_threshold_ms",
        "duration_hours",
        "slot_minutes",
        "constant_rtt_ms",
        "degradation",
    )
] + [
    (lambda v: DeviceMixSpec({"tablet": v, "wearable": 1.0}), "weight for 'tablet'"),
    (lambda v: RetryPolicy(backoff_base_ms=v), "backoff_base_ms"),
    (lambda v: SiteSpec(name="x", wan_rtt_ms=v), "wan_rtt_ms"),
]

_SPEC_MODULES = (repro.scenarios.spec, repro.multisite.spec, repro.faults.spec)


def _is_numeric(hint) -> bool:
    """Whether an annotation is a number, an optional number or a mapping to numbers."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_is_numeric(arg) for arg in args)
    if origin is collections.abc.Mapping:
        return _is_numeric(args[1])
    return hint in (int, float)


class TestNonFiniteValues:
    """NaN fails every float check; inf fails where a run cannot use it."""

    @pytest.mark.parametrize(
        "build, field", _NAN_CASES, ids=[field for _, field in _NAN_CASES]
    )
    def test_nan_rejected(self, build, field):
        with pytest.raises(ValueError, match=field):
            build(float("nan"))

    @pytest.mark.parametrize(
        "build, field", _INF_CASES, ids=[field for _, field in _INF_CASES]
    )
    def test_inf_rejected_where_a_run_needs_a_finite_value(self, build, field):
        with pytest.raises(ValueError, match=f"{field} must be .*finite, got inf"):
            build(float("inf"))

    def test_nan_override_rejected(self):
        with pytest.raises(ValueError, match="duration_hours"):
            ScenarioSpec(name="x").with_overrides(duration_hours=float("nan"))

    def test_every_numeric_field_declares_a_rule(self):
        namespace = {
            name: obj for module in _SPEC_MODULES for name, obj in vars(module).items()
        }
        specs = [
            obj
            for obj in namespace.values()
            if isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ in {module.__name__ for module in _SPEC_MODULES}
        ]
        numeric, unchecked = set(), []
        for cls in specs:
            hints = typing.get_type_hints(cls, localns=namespace)
            for spec_field in dataclasses.fields(cls):
                if _is_numeric(hints[spec_field.name]):
                    numeric.add(f"{cls.__name__}.{spec_field.name}")
                    if RULE not in spec_field.metadata:
                        unchecked.append(f"{cls.__name__}.{spec_field.name}")
        assert not unchecked
        # The walk sees plain, optional, mapping-valued and inherited fields.
        assert {
            "ScenarioSpec.users",
            "ScenarioSpec.seed",
            "DeviceMixSpec.weights",
            "SiteSpec.weight",
            "OutageWindow.start",
        } <= numeric


class TestBootDelay:
    def test_defaults_to_zero(self):
        assert CloudSpec().boot_delay_ms == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="boot_delay_ms"):
            CloudSpec(boot_delay_ms=-1.0)

    def test_round_trips_through_dict(self):
        spec = ScenarioSpec(
            name="boot",
            cloud=CloudSpec(boot_delay_ms=90_000.0),
            workload=WorkloadSpec(target_requests=200),
        )
        clone = ScenarioSpec(**spec.to_dict())
        assert clone.cloud.boot_delay_ms == 90_000.0
        assert clone == spec
