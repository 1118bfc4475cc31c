"""Memory guard: a batched single-site run holds each per-request column once.

At 100k requests the run's traced peak is its whole-run columns: the seven
plan columns (arrival, user, work, jitter, T1, T2, routing), plus the hour
of day and the two draws in flight while the network is sampled, plus the
int16 site ids.  A float64 column costs 8 bytes per request.
"""

import tracemalloc

from repro.scenarios import CloudSpec, ScenarioSpec, WorkloadSpec, run_scenario

REQUESTS = 100_000

#: Traced peak per request.  Measured 83.4 B at 100k requests (Python
#: 3.11.7, numpy 2.4.6); the bound adds 8.6 B, just over one float64
#: column, so one more whole-run column passes and two fail.  While the
#: network sampling still built a second T1/T2 pair next to out-of-place
#: temporaries, with int64 site ids and an all-zero WAN penalty column, the
#: same run peaked at 128.4 B per request.
PEAK_BYTES_PER_REQUEST = 92.0


def spec(requests: int) -> ScenarioSpec:
    # Two-minute slots keep each slot window small next to the whole-run
    # columns, so the peak is the columns'.
    return ScenarioSpec(
        name="memory-guard",
        description="batched single-site run for the memory guard",
        users=120,
        duration_hours=1.0,
        slot_minutes=2.0,
        task_name="fibonacci",
        execution="batched",
        cloud=CloudSpec(instance_cap=64),
        workload=WorkloadSpec(pattern="uniform", target_requests=requests),
    )


def test_batched_single_site_peak_per_request():
    run_scenario(spec(2_000), seed=0)  # warm imports and caches untraced
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run_scenario(spec(REQUESTS), seed=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.requests_total > 0.99 * REQUESTS
    per_request = peak / result.requests_total
    assert per_request <= PEAK_BYTES_PER_REQUEST, (
        f"traced peak {per_request:.1f} B per request "
        f"(bound {PEAK_BYTES_PER_REQUEST})"
    )
