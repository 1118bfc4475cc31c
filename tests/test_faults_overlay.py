"""Unit tests for the fault overlay: the retry-ladder walk as data.

The overlay's determinism contract (same stream state, same plan, same
verdicts) and its positional draw stability (a request's attempt-``k`` draw
does not depend on what happened to other requests, or on the resilience
settings) are what the runner-level parity and A/B pins stand on — so they
are tested directly here, against hand-built plans.
"""

import numpy as np
import pytest

from repro.faults.overlay import (
    OUTCOME_DEGRADED_LOCAL,
    OUTCOME_DROPPED,
    OUTCOME_OK,
    build_fault_overlay,
)
from repro.faults.spec import (
    DegradedWindow,
    FaultSpec,
    PreemptionWindow,
    RetryPolicy,
)
from repro.scenarios.plan import RequestPlan

DURATION_MS = 1_000_000.0


def make_plan(n=200, seed=0, users=10) -> RequestPlan:
    rng = np.random.default_rng(seed)
    return RequestPlan(
        arrival_ms=np.sort(rng.uniform(0.0, DURATION_MS, size=n)),
        user_ids=rng.integers(0, users, size=n),
        work_units=rng.uniform(100.0, 500.0, size=n),
        jitter_z=np.zeros(n),
        t1_ms=np.full(n, 40.0),
        t2_ms=np.full(n, 40.0),
        routing_ms=np.full(n, 5.0),
    )


def build(plan, faults, seed=7):
    return build_fault_overlay(
        plan=plan,
        faults=faults,
        duration_ms=DURATION_MS,
        rng=np.random.default_rng(seed),
    )


class TestDeterminism:
    def test_same_seed_same_verdicts(self):
        plan = make_plan()
        faults = FaultSpec(
            offload_failure_probability=0.2,
            degraded_windows=(
                DegradedWindow(
                    start=0.2, end=0.6, rtt_multiplier=2.0, failure_probability=0.3
                ),
            ),
        )
        a, b = build(plan, faults, seed=3), build(plan, faults, seed=3)
        np.testing.assert_array_equal(a.outcome, b.outcome)
        np.testing.assert_array_equal(a.attempts, b.attempts)
        np.testing.assert_array_equal(a.extra_latency_ms, b.extra_latency_ms)
        np.testing.assert_array_equal(a.final_attempt_ms, b.final_attempt_ms)

    def test_different_seed_differs(self):
        plan = make_plan()
        faults = FaultSpec(offload_failure_probability=0.3)
        a, b = build(plan, faults, seed=3), build(plan, faults, seed=4)
        assert not np.array_equal(a.outcome, b.outcome) or not np.array_equal(
            a.attempts, b.attempts
        )


class TestDrawStability:
    def test_first_attempt_outcomes_match_without_resilience_twin(self):
        """The A/B contract: attempt-1 failures are identical across arms."""
        plan = make_plan(n=500)
        resilient = FaultSpec(
            offload_failure_probability=0.25,
            retry=RetryPolicy(max_attempts=4, local_fallback=True),
        )
        bare = resilient.without_resilience()
        a, b = build(plan, resilient, seed=11), build(plan, bare, seed=11)
        # Every request the bare arm lost failed its first attempt in the
        # resilient arm too (attempts > 1 or eventually degraded).
        lost = b.outcome == OUTCOME_DROPPED
        assert np.all((a.attempts[lost] > 1) | (a.outcome[lost] != OUTCOME_OK))
        # And every first-attempt success is a success in both.
        won = b.outcome == OUTCOME_OK
        assert np.all(a.attempts[won] >= 1)
        assert np.all(a.outcome[won] == OUTCOME_OK)
        assert np.all(a.extra_latency_ms[won & (a.attempts == 1)] == 0.0)

    def test_retries_recover_requests(self):
        plan = make_plan(n=500)
        faults = FaultSpec(
            offload_failure_probability=0.3,
            retry=RetryPolicy(max_attempts=3, local_fallback=False),
        )
        overlay = build(plan, faults, seed=5)
        bare = build(plan, faults.without_resilience(), seed=5)
        dropped_resilient = int(np.count_nonzero(overlay.outcome == OUTCOME_DROPPED))
        dropped_bare = int(np.count_nonzero(bare.outcome == OUTCOME_DROPPED))
        assert dropped_resilient < dropped_bare


class TestOutcomes:
    def test_no_faults_means_all_ok(self):
        plan = make_plan()
        overlay = build(plan, FaultSpec())
        assert np.all(overlay.outcome == OUTCOME_OK)
        assert np.all(overlay.attempts == 1)
        assert np.all(overlay.extra_latency_ms == 0.0)
        assert np.all(overlay.rtt_factor == 1.0)

    def test_certain_failure_degrades_or_drops(self):
        plan = make_plan(n=100)
        local = FaultSpec(
            offload_failure_probability=1.0,
            retry=RetryPolicy(max_attempts=2, local_fallback=True),
        )
        overlay = build(plan, local)
        assert np.all(overlay.outcome == OUTCOME_DEGRADED_LOCAL)
        assert np.all(overlay.attempts == 2)
        dropped = build(plan, local.without_resilience())
        assert np.all(dropped.outcome == OUTCOME_DROPPED)
        assert np.all(dropped.attempts == 1)

    def test_failed_attempts_burn_detection_and_backoff(self):
        plan = make_plan(n=50)
        faults = FaultSpec(
            offload_failure_probability=1.0,
            failure_detection_ms=100.0,
            retry=RetryPolicy(
                max_attempts=2,
                attempt_timeout_ms=5_000.0,
                backoff_base_ms=50.0,
                backoff_jitter=0.0,
                local_fallback=True,
            ),
        )
        overlay = build(plan, faults)
        # Two failed attempts burn detection twice plus one backoff.
        np.testing.assert_allclose(overlay.extra_latency_ms, 250.0)
        np.testing.assert_allclose(
            overlay.final_attempt_ms, plan.arrival_ms + 150.0
        )

    def test_attempt_timeout_caps_detection(self):
        plan = make_plan(n=50)
        faults = FaultSpec(
            offload_failure_probability=1.0,
            failure_detection_ms=10_000.0,
            degraded_windows=(DegradedWindow(start=0.0, end=1.0, rtt_multiplier=4.0),),
            retry=RetryPolicy(
                max_attempts=1, attempt_timeout_ms=700.0, local_fallback=True
            ),
        )
        overlay = build(plan, faults)
        np.testing.assert_allclose(overlay.extra_latency_ms, 700.0)


class TestWindows:
    def test_preemption_window_only_kills_inside(self):
        plan = make_plan(n=400)
        faults = FaultSpec(
            preemptions=(
                PreemptionWindow(start=0.4, end=0.6, kill_probability=1.0),
            ),
            retry=RetryPolicy(
                max_attempts=1, attempt_timeout_ms=100.0, local_fallback=True
            ),
        )
        overlay = build(plan, faults)
        inside = (plan.arrival_ms >= 0.4 * DURATION_MS) & (
            plan.arrival_ms < 0.6 * DURATION_MS
        )
        assert np.all(overlay.outcome[inside] == OUTCOME_DEGRADED_LOCAL)
        assert np.all(overlay.outcome[~inside] == OUTCOME_OK)

    def test_backoff_can_escape_a_window(self):
        """Retrying past the window's end genuinely lowers the hazard."""
        n = 10
        # All arrivals just before the cliff at 0.5 * duration.
        plan = make_plan(n=n)
        plan.arrival_ms[:] = 0.5 * DURATION_MS - 1.0
        faults = FaultSpec(
            preemptions=(
                PreemptionWindow(start=0.0, end=0.5, kill_probability=1.0),
            ),
            failure_detection_ms=100.0,
            retry=RetryPolicy(
                max_attempts=2,
                attempt_timeout_ms=5_000.0,
                backoff_base_ms=50.0,
                backoff_jitter=0.0,
                local_fallback=True,
            ),
        )
        overlay = build(plan, faults)
        # First attempt dies inside the window, the retry lands beyond it.
        assert np.all(overlay.attempts == 2)
        assert np.all(overlay.outcome == OUTCOME_OK)
        assert np.all(overlay.final_attempt_ms >= 0.5 * DURATION_MS)

    def test_degraded_window_stretches_final_attempt_rtt(self):
        plan = make_plan(n=300)
        faults = FaultSpec(
            degraded_windows=(
                DegradedWindow(start=0.2, end=0.7, rtt_multiplier=3.0),
            ),
        )
        overlay = build(plan, faults)
        inside = (plan.arrival_ms >= 0.2 * DURATION_MS) & (
            plan.arrival_ms < 0.7 * DURATION_MS
        )
        np.testing.assert_allclose(overlay.rtt_factor[inside], 3.0)
        np.testing.assert_allclose(overlay.rtt_factor[~inside], 1.0)
        t1_before = plan.t1_ms.copy()
        overlay.apply_network_factor(plan)
        np.testing.assert_allclose(plan.t1_ms[inside], 3.0 * t1_before[inside])
        np.testing.assert_allclose(plan.t1_ms[~inside], t1_before[~inside])

    def test_site_scoped_preemption_needs_site_ids(self):
        plan = make_plan(n=200)
        faults = FaultSpec(
            preemptions=(
                PreemptionWindow(
                    start=0.0, end=1.0, kill_probability=1.0, site="spot"
                ),
            ),
            retry=RetryPolicy(max_attempts=1, local_fallback=True),
        )
        # Hand-built single-site use: the scoped window is inert.
        assert np.all(build(plan, faults).outcome == OUTCOME_OK)
        # With a static assignment it fires only on the named site.
        site_ids = np.tile(np.asarray([0, 1]), len(plan) // 2)
        overlay = build_fault_overlay(
            plan=plan,
            faults=faults,
            duration_ms=DURATION_MS,
            rng=np.random.default_rng(7),
            site_ids=site_ids,
            site_names=["spot", "on-demand"],
        )
        assert np.all(overlay.outcome[site_ids == 0] == OUTCOME_DEGRADED_LOCAL)
        assert np.all(overlay.outcome[site_ids == 1] == OUTCOME_OK)


class TestFoldHelpers:
    def test_apply_latency_shifts_only_offloading_requests(self):
        plan = make_plan(n=300)
        faults = FaultSpec(
            offload_failure_probability=0.4,
            retry=RetryPolicy(max_attempts=3, local_fallback=True),
        )
        overlay = build(plan, faults)
        routing_before = plan.routing_ms.copy()
        overlay.apply_latency(plan)
        ok = overlay.outcome == OUTCOME_OK
        np.testing.assert_allclose(
            plan.routing_ms[ok], routing_before[ok] + overlay.extra_latency_ms[ok]
        )
        np.testing.assert_allclose(plan.routing_ms[~ok], routing_before[~ok])

    def test_fault_summary_counts_and_user_attribution(self):
        users = 10
        plan = make_plan(n=400, users=users)
        faults = FaultSpec(
            offload_failure_probability=0.5,
            retry=RetryPolicy(max_attempts=2, local_fallback=True),
        )
        overlay = build(plan, faults)
        overlay.set_local_execution(np.full(users, 0.25))
        summary = overlay.fault_summary(users, plan)
        local = overlay.outcome == OUTCOME_DEGRADED_LOCAL
        assert summary.requests_local == int(np.count_nonzero(local))
        assert summary.requests_dropped == 0
        assert summary.requests_retried == int(np.count_nonzero(overlay.attempts > 1))
        assert summary.local_user_counts.sum() == summary.requests_local
        assert summary.local_response_ms.shape == (summary.requests_local,)
        # Local execution time: pre-drawn work over the device speed, plus
        # the latency burned before falling back.
        np.testing.assert_allclose(
            summary.local_response_ms,
            overlay.extra_latency_ms[local] + plan.work_units[local] / 0.25,
        )

    def test_fault_summary_excludes_unrouted(self):
        users = 5
        plan = make_plan(n=100, users=users)
        faults = FaultSpec(
            offload_failure_probability=1.0,
            retry=RetryPolicy(max_attempts=1, local_fallback=True),
        )
        overlay = build(plan, faults)
        overlay.set_local_execution(np.full(users, 0.25))
        site_ids = np.full(len(plan), -1, dtype=np.int64)
        site_ids[:40] = 0
        summary = overlay.fault_summary(users, plan, site_ids=site_ids)
        assert summary.requests_local == 40
        assert summary.local_user_counts.sum() == 40
