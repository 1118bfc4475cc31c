"""Batched-vs-event execution parity for the scenario runner.

The batched fast path must be *indistinguishable* from the event path on
deterministic configurations (fixed-rate arrivals, constant-latency network,
light load, promotions off) and statistically equivalent — within documented
tolerances — on stochastic ones.  Both paths consume the same pre-drawn
request plan, so arrivals, work, RTTs and routing overheads are identical by
construction; the tolerances bound only the queueing/promotion-timing
approximations.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.scenarios import run_scenario
from repro.scenarios.spec import (
    CloudSpec,
    NetworkSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)

EXACT_FIELDS_INT = (
    "requests_total",
    "requests_succeeded",
    "requests_dropped",
    "predictions",
    "scaling_actions",
    "promoted_users",
    "promotions",
)
CLOSE_FIELDS_FLOAT = (
    "mean_response_ms",
    "p50_response_ms",
    "p95_response_ms",
    "p99_response_ms",
    "prediction_accuracy",
    "allocation_cost_usd",
    "mean_utilization",
)


def deterministic_spec(**overrides) -> ScenarioSpec:
    """Fixed-rate arrivals + constant RTT + promotions off, lightly loaded."""
    defaults = dict(
        name="parity-deterministic",
        users=8,
        duration_hours=0.5,
        slot_minutes=10.0,
        task_name="fibonacci",
        workload=WorkloadSpec(pattern="fixed", target_requests=233),
        network=NetworkSpec(profile="constant", constant_rtt_ms=47.0),
        policy=PolicySpec(promotion="static", promotion_probability=0.0),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def stochastic_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="parity-stochastic",
        users=30,
        duration_hours=1.0,
        slot_minutes=15.0,
        task_name="fibonacci",
        cloud=CloudSpec(instance_cap=40),
        workload=WorkloadSpec(pattern="uniform", target_requests=3000),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def run_both(spec: ScenarioSpec, seed: int):
    event = run_scenario(dataclasses.replace(spec, execution="event"), seed=seed)
    batched = run_scenario(dataclasses.replace(spec, execution="batched"), seed=seed)
    return event, batched


class TestDeterministicParity:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_metrics_identical(self, seed):
        event, batched = run_both(deterministic_spec(), seed)
        assert event.as_row() == batched.as_row()
        for name in EXACT_FIELDS_INT:
            assert getattr(event, name) == getattr(batched, name), name
        for name in CLOSE_FIELDS_FLOAT:
            left, right = getattr(event, name), getattr(batched, name)
            if math.isnan(left):
                assert math.isnan(right), name
            else:
                assert left == pytest.approx(right, rel=1e-9, abs=1e-9), name

    def test_deterministic_run_produces_requests(self):
        _, batched = run_both(deterministic_spec(), 0)
        assert batched.requests_total > 200
        assert batched.requests_dropped == 0


class TestStochasticEquivalence:
    """Documented tolerances for the batched queueing approximation.

    Under light-to-moderate load the FCFS-per-core service model tracks the
    event path's processor sharing closely; the bounds below are the
    advertised contract (seeded, hence not flaky).
    """

    @pytest.mark.parametrize("seed", [0, 7])
    def test_summary_statistics_within_tolerance(self, seed):
        event, batched = run_both(stochastic_spec(), seed)
        # Same plan -> exactly the same request population.
        assert event.requests_total == batched.requests_total
        assert abs(event.drop_rate - batched.drop_rate) <= 0.02
        assert batched.mean_response_ms == pytest.approx(
            event.mean_response_ms, rel=0.10
        )
        assert batched.p50_response_ms == pytest.approx(
            event.p50_response_ms, rel=0.10
        )
        assert batched.p95_response_ms == pytest.approx(
            event.p95_response_ms, rel=0.15
        )
        # Control plane runs at the same slot boundaries in both modes.
        assert event.scaling_actions == batched.scaling_actions
        assert event.predictions == batched.predictions

    def test_lte_network_with_promotions(self):
        spec = stochastic_spec(
            name="parity-lte",
            network=NetworkSpec(profile="lte"),
            policy=PolicySpec(promotion="static", promotion_probability=0.05),
        )
        event, batched = run_both(spec, 1)
        assert event.requests_total == batched.requests_total
        assert batched.mean_response_ms == pytest.approx(
            event.mean_response_ms, rel=0.10
        )
        # Promotion draws come from the same per-user streams.
        assert batched.promotions > 0
        assert abs(event.promotions - batched.promotions) <= max(
            3, int(0.2 * event.promotions)
        )

    def test_threshold_promotion_policy_runs_batched(self):
        spec = stochastic_spec(
            name="parity-threshold",
            policy=PolicySpec(promotion="threshold", promotion_threshold_ms=150.0),
        )
        _, batched = run_both(spec, 2)
        assert batched.requests_total > 0
        assert batched.promotions > 0

    def test_battery_promotion_policy_runs_batched(self):
        spec = stochastic_spec(
            name="parity-battery",
            policy=PolicySpec(promotion="battery", promotion_probability=0.05),
        )
        batched = run_scenario(dataclasses.replace(spec, execution="batched"), seed=4)
        assert batched.requests_total > 0

    def test_round_robin_routing_parity(self):
        spec = stochastic_spec(
            name="parity-rr", policy=PolicySpec(routing="round-robin")
        )
        event, batched = run_both(spec, 5)
        assert event.requests_total == batched.requests_total
        assert batched.mean_response_ms == pytest.approx(
            event.mean_response_ms, rel=0.15
        )

    def test_modulated_pattern_runs_batched(self):
        spec = stochastic_spec(
            name="parity-flash",
            workload=WorkloadSpec(
                pattern="flash-crowd", target_requests=3000, burst_factor=4.0
            ),
        )
        batched = run_scenario(dataclasses.replace(spec, execution="batched"), seed=6)
        assert batched.requests_total > 1000


class TestSaturationParity:
    """Admission-drop agreement in the overload regime.

    The fleet is pinned to two t2.nano instances against several times their
    sustainable load, so admission control (not provisioning) decides the
    loss rate.  The exact sequential-admission fallback must keep the batched
    drop rate within one percentage point of the event path's — the residual
    gap is the FCFS-vs-processor-sharing ordering difference, not the
    admission model (the old one-pass estimate over-dropped by >60 points
    here).
    """

    def saturated_spec(self, **overrides) -> ScenarioSpec:
        defaults = dict(
            name="parity-saturated",
            users=40,
            duration_hours=0.25,
            slot_minutes=7.5,
            task_name="bubblesort",
            cloud=CloudSpec(group_types={1: "t2.nano"}, instance_cap=2),
            workload=WorkloadSpec(pattern="uniform", target_requests=10_000),
            policy=PolicySpec(promotion="static", promotion_probability=0.0),
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_drop_rates_agree_under_overload(self, seed):
        event, batched = run_both(self.saturated_spec(), seed)
        # The regime is genuinely saturated: a substantial fraction drops.
        assert event.drop_rate > 0.15
        assert batched.drop_rate > 0.15
        assert abs(event.drop_rate - batched.drop_rate) <= 0.01
        assert event.requests_total == batched.requests_total
        # Survivor latency is queueing-dominated and still tracks closely.
        assert batched.mean_response_ms == pytest.approx(
            event.mean_response_ms, rel=0.05
        )

    def test_light_load_takes_no_sequential_pass(self):
        # Sanity guard for the fast path: no drops means the one-pass
        # schedule is final and exactly matches the event path.
        event, batched = run_both(deterministic_spec(), 0)
        assert event.requests_dropped == batched.requests_dropped == 0


class TestBatchedDeterminism:
    def test_same_seed_same_result(self):
        spec = stochastic_spec(execution="batched")
        first = run_scenario(spec, seed=9)
        second = run_scenario(spec, seed=9)
        assert first.as_row() == second.as_row()

    def test_different_seeds_differ(self):
        spec = stochastic_spec(execution="batched")
        assert run_scenario(spec, seed=1).as_row() != run_scenario(spec, seed=2).as_row()


class TestExecutionKnob:
    def test_spec_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="execution"):
            deterministic_spec(execution="warp")

    def test_with_overrides_switches_mode(self):
        spec = deterministic_spec()
        assert spec.execution == "event"
        assert spec.with_overrides(execution="batched").execution == "batched"

    def test_round_trips_through_dict(self):
        spec = deterministic_spec(execution="batched")
        assert ScenarioSpec(**spec.to_dict()).execution == "batched"
