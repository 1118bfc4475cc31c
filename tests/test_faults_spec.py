"""Validation and serialisation tests for the fault/resilience specs."""

import dataclasses

import pytest

import numpy as np

from repro.faults.overlay import ATTEMPTS_DTYPE, build_fault_overlay
from repro.faults.spec import (
    MAX_ATTEMPTS,
    ControlPlaneFaults,
    DegradedWindow,
    FaultSpec,
    PreemptionWindow,
    RetryPolicy,
)
from repro.scenarios.plan import RequestPlan
from repro.scenarios.spec import ScenarioSpec


class TestWindowValidation:
    @pytest.mark.parametrize("start,end", [(-0.1, 0.5), (0.5, 0.5), (0.2, 1.1)])
    def test_degraded_window_rejects_bad_bounds(self, start, end):
        with pytest.raises(ValueError, match="DegradedWindow"):
            DegradedWindow(start=start, end=end)

    def test_degraded_window_rejects_shrinking_rtt(self):
        with pytest.raises(ValueError, match="rtt_multiplier"):
            DegradedWindow(start=0.1, end=0.2, rtt_multiplier=0.5)

    def test_degraded_window_rejects_nan_rtt(self):
        with pytest.raises(ValueError, match="rtt_multiplier"):
            DegradedWindow(start=0.1, end=0.2, rtt_multiplier=float("nan"))

    def test_preemption_window_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="kill_probability"):
            PreemptionWindow(start=0.1, end=0.2, kill_probability=1.5)

    def test_contains_is_half_open(self):
        window = DegradedWindow(start=0.25, end=0.5)
        assert window.contains(250.0, 1000.0)
        assert window.contains(499.9, 1000.0)
        assert not window.contains(500.0, 1000.0)
        assert not window.contains(249.9, 1000.0)


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_attempts", 0),
            ("attempt_timeout_ms", 0.0),
            ("backoff_base_ms", -1.0),
            ("backoff_multiplier", 0.5),
            ("backoff_jitter", 1.0),
        ],
    )
    def test_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "attempt_timeout_ms",
            "backoff_base_ms",
            "backoff_multiplier",
            "backoff_jitter",
            "max_attempts",
        ],
    )
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: float("nan")})

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(
            backoff_base_ms=100.0, backoff_multiplier=2.0, backoff_jitter=0.0
        )
        assert policy.backoff_ms(1, 0.5) == pytest.approx(100.0)
        assert policy.backoff_ms(3, 0.5) == pytest.approx(400.0)

    def test_backoff_jitter_is_symmetric(self):
        policy = RetryPolicy(
            backoff_base_ms=100.0, backoff_multiplier=1.0, backoff_jitter=0.5
        )
        assert policy.backoff_ms(1, 0.0) == pytest.approx(50.0)
        assert policy.backoff_ms(1, 0.5) == pytest.approx(100.0)
        # jitter_unit is drawn from [0, 1); the supremum is 1.5x.
        assert policy.backoff_ms(1, 1.0) == pytest.approx(150.0)


class TestMaxAttemptsBound:
    def test_more_attempts_than_the_attempts_dtype_holds_are_rejected(self):
        assert MAX_ATTEMPTS == int(np.iinfo(ATTEMPTS_DTYPE).max)
        with pytest.raises(
            ValueError,
            match=rf"^max_attempts must be in \[1, {MAX_ATTEMPTS}\], got {MAX_ATTEMPTS + 1}$",
        ):
            RetryPolicy(max_attempts=MAX_ATTEMPTS + 1)
        with pytest.raises(ValueError, match="max_attempts"):
            FaultSpec(retry={"max_attempts": MAX_ATTEMPTS + 1})

    def test_a_ladder_at_the_bound_counts_every_attempt(self):
        # Every attempt fails, so each request climbs the whole ladder.
        n = 8
        plan = RequestPlan(
            arrival_ms=np.arange(n, dtype=float),
            user_ids=np.zeros(n, dtype=np.int64),
            work_units=np.ones(n),
            jitter_z=np.zeros(n),
            t1_ms=np.zeros(n),
            t2_ms=np.zeros(n),
            routing_ms=np.zeros(n),
        )
        overlay = build_fault_overlay(
            plan=plan,
            faults=FaultSpec(
                offload_failure_probability=1.0,
                retry=RetryPolicy(max_attempts=MAX_ATTEMPTS, backoff_multiplier=1.0),
            ),
            duration_ms=1_000.0,
            rng=np.random.default_rng(0),
        )
        assert overlay.attempts.dtype == ATTEMPTS_DTYPE
        assert np.all(overlay.attempts == MAX_ATTEMPTS)


class TestControlPlaneValidation:
    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="snapshot_delay_slots"):
            ControlPlaneFaults(snapshot_delay_slots=-1)

    def test_rejects_bad_loss_probability(self):
        with pytest.raises(ValueError, match="snapshot_loss_probability"):
            ControlPlaneFaults(snapshot_loss_probability=2.0)


class TestFaultSpec:
    def full_spec(self) -> FaultSpec:
        return FaultSpec(
            offload_failure_probability=0.05,
            failure_detection_ms=300.0,
            preemptions=(
                PreemptionWindow(start=0.3, end=0.6, kill_probability=0.4, site="spot"),
            ),
            degraded_windows=(
                DegradedWindow(
                    start=0.1, end=0.4, rtt_multiplier=3.0, failure_probability=0.2
                ),
            ),
            control_plane=ControlPlaneFaults(
                snapshot_delay_slots=2, snapshot_loss_probability=0.25
            ),
            retry=RetryPolicy(max_attempts=4, reroute_on_retry=True),
            lenient_outages=True,
        )

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="offload_failure_probability"):
            FaultSpec(offload_failure_probability=-0.1)

    def test_rejects_negative_detection_time(self):
        with pytest.raises(ValueError, match="failure_detection_ms"):
            FaultSpec(failure_detection_ms=-1.0)

    def test_rejects_nan_detection_time(self):
        with pytest.raises(ValueError, match="failure_detection_ms"):
            FaultSpec(failure_detection_ms=float("nan"))

    def test_dict_round_trip(self):
        spec = self.full_spec()
        assert FaultSpec(**dataclasses.asdict(spec)) == spec

    def test_dict_round_trip_without_control_plane(self):
        spec = FaultSpec(offload_failure_probability=0.1)
        payload = ScenarioSpec(name="faulty", faults=spec).to_dict()["faults"]
        assert payload["control_plane"] is None
        assert FaultSpec(**payload) == spec

    def test_mapping_coercion(self):
        spec = FaultSpec(
            preemptions=({"start": 0.1, "end": 0.2},),
            degraded_windows=({"start": 0.3, "end": 0.4},),
            control_plane={"snapshot_delay_slots": 1},
            retry={"max_attempts": 2},
        )
        assert isinstance(spec.preemptions[0], PreemptionWindow)
        assert isinstance(spec.degraded_windows[0], DegradedWindow)
        assert isinstance(spec.control_plane, ControlPlaneFaults)
        assert spec.retry.max_attempts == 2

    def test_without_resilience_disables_only_the_answer(self):
        spec = self.full_spec()
        twin = spec.without_resilience()
        assert twin.retry.max_attempts == 1
        assert not twin.retry.reroute_on_retry
        assert not twin.retry.local_fallback
        # The fault processes themselves are untouched.
        assert twin.preemptions == spec.preemptions
        assert twin.degraded_windows == spec.degraded_windows
        assert twin.offload_failure_probability == spec.offload_failure_probability

    def test_has_faults(self):
        assert not FaultSpec().has_faults
        assert FaultSpec(offload_failure_probability=0.01).has_faults
        assert FaultSpec(
            preemptions=(PreemptionWindow(start=0.1, end=0.2),)
        ).has_faults
        assert FaultSpec(
            degraded_windows=(DegradedWindow(start=0.1, end=0.2),)
        ).has_faults
        assert FaultSpec(control_plane=ControlPlaneFaults()).has_faults
        # Windows that cannot fire do not count as faults.
        assert not FaultSpec(
            preemptions=(PreemptionWindow(start=0.1, end=0.2, kill_probability=0.0),)
        ).has_faults
