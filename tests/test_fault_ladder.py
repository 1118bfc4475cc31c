"""The retry ladder over pending requests matches a full-length ladder, bit for bit.

``build_fault_overlay`` works on the indices of the requests still failing
after round 0.  The reference below is the full-length ladder it replaced:
every round computes the failure probability, waste and backoff for every
request and applies them through boolean masks.  Both must give the same
overlay columns, to the last bit, and leave the generator at the same
position: every round draws both uniform vectors at full length, even when
nothing failed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.overlay import (
    OUTCOME_DEGRADED_LOCAL,
    OUTCOME_DROPPED,
    OUTCOME_OK,
    build_fault_overlay,
)
from repro.faults.spec import DegradedWindow, FaultSpec, PreemptionWindow, RetryPolicy
from repro.multisite.broker import SITE_ID_DTYPE
from repro.scenarios.plan import RequestPlan

DURATION_MS = 600_000.0
SITE_NAMES = ("a", "b", "c")


def reference_window_factor(spec, t_ms, duration_ms):
    factor = np.ones(t_ms.size, dtype=float)
    for window in spec.degraded_windows:
        inside = (t_ms >= window.start * duration_ms) & (
            t_ms < window.end * duration_ms
        )
        factor[inside] = np.maximum(factor[inside], window.rtt_multiplier)
    return factor


def reference_failure_probability(spec, t_ms, duration_ms, site_ids):
    p = np.full(t_ms.size, spec.offload_failure_probability, dtype=float)
    for window in spec.degraded_windows:
        if window.failure_probability <= 0.0:
            continue
        inside = (t_ms >= window.start * duration_ms) & (
            t_ms < window.end * duration_ms
        )
        p[inside] += window.failure_probability
    for window in spec.preemptions:
        if window.kill_probability <= 0.0:
            continue
        inside = (t_ms >= window.start * duration_ms) & (
            t_ms < window.end * duration_ms
        )
        if window.site is not None:
            if site_ids is None:
                continue
            inside &= site_ids == SITE_NAMES.index(window.site)
        p[inside] += window.kill_probability
    return np.clip(p, 0.0, 1.0)


def reference_ladder(plan, faults, duration_ms, rng, site_ids):
    """The full-length ladder: every column computed for every request."""
    n = len(plan)
    retry = faults.retry
    attempts = np.ones(n, dtype=np.int64)
    outcome = np.full(n, OUTCOME_OK, dtype=np.int8)
    extra = np.zeros(n, dtype=float)
    t_attempt = plan.arrival_ms.astype(float).copy()
    final_t = t_attempt.copy()
    pending = np.ones(n, dtype=bool)
    for round_index in range(retry.max_attempts):
        if not np.any(pending):
            break
        u_fail = rng.random(n)
        v_jitter = rng.random(n)
        p = reference_failure_probability(faults, t_attempt, duration_ms, site_ids)
        failed = pending & (u_fail < p)
        succeeded = pending & ~failed
        final_t[succeeded] = t_attempt[succeeded]
        pending = failed
        if not np.any(failed):
            break
        waste = np.minimum(
            faults.failure_detection_ms
            * reference_window_factor(faults, t_attempt, duration_ms),
            retry.attempt_timeout_ms,
        )
        extra[failed] += waste[failed]
        if round_index < retry.max_attempts - 1:
            backoff = retry.backoff_ms(round_index + 1, v_jitter)
            delay = waste + backoff
            extra[failed] += backoff[failed]
            t_attempt[failed] += delay[failed]
            attempts[failed] += 1
            final_t[failed] = t_attempt[failed]
    if np.any(pending):
        outcome[pending] = (
            OUTCOME_DEGRADED_LOCAL if retry.local_fallback else OUTCOME_DROPPED
        )
    return {
        "attempts": attempts,
        "outcome": outcome,
        "extra_latency_ms": extra,
        "rtt_factor": reference_window_factor(faults, final_t, duration_ms),
        "final_attempt_ms": final_t,
    }


fractions = st.integers(min_value=0, max_value=18).map(lambda k: k / 20.0)
widths = st.integers(min_value=1, max_value=6).map(lambda k: k / 20.0)


@st.composite
def degraded_windows(draw):
    start = draw(fractions)
    return DegradedWindow(
        start=start,
        end=min(start + draw(widths), 1.0),
        rtt_multiplier=draw(st.floats(min_value=1.0, max_value=4.0)),
        failure_probability=draw(st.floats(min_value=0.0, max_value=0.9)),
    )


@st.composite
def preemption_windows(draw, scoped):
    start = draw(fractions)
    return PreemptionWindow(
        start=start,
        end=min(start + draw(widths), 1.0),
        kill_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
        site=draw(st.sampled_from(SITE_NAMES)) if scoped else None,
    )


@st.composite
def ladder_cases(draw):
    """A fault spec, a plan size and whether static site ids scope preemptions."""
    static_sites = draw(st.booleans())
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        # Nothing can fail: round 0 must still draw both vectors.
        faults = FaultSpec(
            retry=RetryPolicy(
                max_attempts=draw(st.integers(min_value=1, max_value=5)),
                local_fallback=draw(st.booleans()),
            )
        )
    else:
        preemptions = draw(
            st.lists(
                st.booleans().flatmap(
                    lambda scoped: preemption_windows(scoped and static_sites)
                ),
                max_size=2,
            )
        )
        faults = FaultSpec(
            offload_failure_probability=draw(st.floats(min_value=0.0, max_value=0.9)),
            failure_detection_ms=draw(st.floats(min_value=0.0, max_value=1_000.0)),
            degraded_windows=tuple(draw(st.lists(degraded_windows(), max_size=2))),
            preemptions=tuple(preemptions),
            retry=RetryPolicy(
                max_attempts=draw(st.integers(min_value=1, max_value=5)),
                attempt_timeout_ms=draw(st.floats(min_value=1.0, max_value=2_000.0)),
                backoff_base_ms=draw(st.floats(min_value=0.0, max_value=50_000.0)),
                backoff_multiplier=draw(st.floats(min_value=1.0, max_value=4.0)),
                backoff_jitter=draw(st.floats(min_value=0.0, max_value=0.9)),
                local_fallback=draw(st.booleans()),
            ),
        )
    return faults, draw(st.integers(min_value=0, max_value=300)), static_sites


def make_plan(n, seed):
    rng = np.random.default_rng(seed)
    return RequestPlan(
        arrival_ms=np.sort(rng.uniform(0.0, DURATION_MS, size=n)),
        user_ids=rng.integers(0, 8, size=n),
        work_units=rng.uniform(100.0, 400.0, size=n),
        jitter_z=np.zeros(n),
        t1_ms=np.full(n, 40.0),
        t2_ms=np.full(n, 40.0),
        routing_ms=np.full(n, 5.0),
    )


def bits(column):
    column = np.asarray(column)
    if column.dtype == np.float64:
        return column.view(np.int64)
    return column.astype(np.int64)


class TestPendingLadderMatchesFullLength:
    @settings(max_examples=150, deadline=None)
    @given(case=ladder_cases(), seed=st.integers(min_value=0, max_value=2**31))
    def test_columns_and_generator_match_bit_for_bit(self, case, seed):
        faults, n, static_sites = case
        plan = make_plan(n, seed)
        site_ids = None
        if static_sites:
            site_ids = (
                np.random.default_rng(seed + 1)
                .integers(0, len(SITE_NAMES), size=n)
                .astype(SITE_ID_DTYPE)
            )
        rng = np.random.default_rng(seed)
        overlay = build_fault_overlay(
            plan=plan,
            faults=faults,
            duration_ms=DURATION_MS,
            rng=rng,
            site_ids=site_ids,
            site_names=SITE_NAMES,
        )
        reference_rng = np.random.default_rng(seed)
        expected = reference_ladder(plan, faults, DURATION_MS, reference_rng, site_ids)
        for name, column in expected.items():
            np.testing.assert_array_equal(
                bits(getattr(overlay, name)), bits(column), err_msg=name
            )
        assert rng.random() == reference_rng.random()
