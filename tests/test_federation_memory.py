"""Memory guard: a faulted federation run holds each per-request column once.

At 100k requests the run's traced peak is its whole-run columns while the
slots are served: the seven plan columns, the int16 site ids and the
spilled flags, the fault overlay (byte-wide attempts, outcome, rerouted and
killed flags; float extra latency, RTT factor and final attempt time) and
the success buffer with its int16 site ids.  A float64 column costs
8 bytes per request.  The retry ladder, which walks only the pending
requests after round 0, and the result fold, which partitions in place,
stay below that peak.
"""

import tracemalloc

from repro.faults.spec import ControlPlaneFaults, FaultSpec, RetryPolicy
from repro.multisite.spec import MultiSiteSpec, SiteSpec, SpilloverSpec
from repro.scenarios import CloudSpec, ScenarioSpec, WorkloadSpec, run_scenario
from repro.scenarios.spec import PolicySpec

REQUESTS = 100_000

#: Traced peak per request.  Measured 112.9 B at 100k requests (Python
#: 3.11.7, numpy 2.4.6); the bound adds 9.1 B, just over one float64
#: column, so one more whole-run column passes and two fail.  While the
#: retry ladder kept full-length columns for every round, the dynamic broker
#: kept int64 site ids beside a per-request WAN penalty column, and the
#: fold concatenated and copied the successes, the same run peaked at
#: 176.0 B per request.
PEAK_BYTES_PER_REQUEST = 122.0


def site(name: str, wan_rtt_ms: float, weight: float) -> SiteSpec:
    return SiteSpec(
        name=name,
        cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=8),
        wan_rtt_ms=wan_rtt_ms,
        weight=weight,
        population_share=weight,
    )


def spec(requests: int) -> ScenarioSpec:
    # The stale-broker federation: dynamic-load brokering with spillover,
    # late and lost load snapshots, 4% of offloads failing and retried.
    # Two-minute slots keep each slot window small next to the whole-run
    # columns, so the peak is the columns'.
    return ScenarioSpec(
        name="federation-memory-guard",
        description="faulted dynamic-load federation for the memory guard",
        users=50,
        duration_hours=1.0,
        slot_minutes=2.0,
        task_name="bubblesort",
        execution="batched",
        workload=WorkloadSpec(pattern="uniform", target_requests=requests),
        policy=PolicySpec(promotion="static", promotion_probability=0.0),
        sites=MultiSiteSpec(
            sites=(site("near", 6.0, 2.0), site("far", 28.0, 1.0)),
            policy="dynamic-load",
            spillover=SpilloverSpec(queue_limit_fraction=0.8, prefer="nearest-rtt"),
        ),
        faults=FaultSpec(
            offload_failure_probability=0.04,
            control_plane=ControlPlaneFaults(
                snapshot_delay_slots=2, snapshot_loss_probability=0.25
            ),
            retry=RetryPolicy(max_attempts=3, local_fallback=True),
        ),
    )


def test_faulted_federation_peak_per_request():
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
    assert result.requests_retried > 0.03 * REQUESTS
    per_request = peak / result.requests_total
    assert per_request <= PEAK_BYTES_PER_REQUEST, (
        f"traced peak {per_request:.1f} B per request "
        f"(bound {PEAK_BYTES_PER_REQUEST})"
    )
