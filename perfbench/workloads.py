"""The benchmark's four workloads, built here so a program edit cannot shift them.

Each workload is a function of the seed only.  The specs are written out in
this file with the public spec classes instead of being imported from
``repro.perf`` or looked up by name, so the only way to change what a
workload asks of the simulator is to edit this file.  ``campaign-registry``
is the exception by design: its workload *is* the scenario registry, so it
pins the registry's names and its result digest instead.

Every timed run ends in :func:`check_outputs`, which applies the result
invariants and, at the pinned seed, compares the result digest with the one
recorded in :data:`PINNED_DIGESTS`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from typing import Dict, List, Sequence

from repro.faults.spec import ControlPlaneFaults, FaultSpec, RetryPolicy
from repro.multisite.spec import MultiSiteSpec, SiteSpec, SpilloverSpec
import repro.scenarios as scenarios
from repro.scenarios import (
    CloudSpec,
    PolicySpec,
    ScenarioResult,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
)

#: Workload names, in the order the doc page and ``--workload all`` use.
WORKLOADS = ("event-single", "batched-single", "federation-dynamic", "campaign-registry")

#: Requests per run.  ``batched-single`` is 20x ``event-single`` so the two
#: single-site workloads take host times of the same order.
EVENT_REQUESTS = 40_000
BATCHED_REQUESTS = 20 * EVENT_REQUESTS
FEDERATION_REQUESTS = 240_000

#: The registry ``campaign-registry`` runs, pinned so a scenario added to or
#: removed from the registry shows up as a failed check, not a silent shift.
REGISTRY_NAMES = (
    "paper-baseline",
    "flash-crowd",
    "diurnal",
    "bursty-poisson",
    "heterogeneous-fleet",
    "price-spike",
    "degraded-3g",
    "cold-history",
    "region-outage-failover",
    "cross-region-flash-crowd",
    "price-arbitrage",
    "edge-vs-core",
    "hotspot-spillover",
    "load-chase",
    "mixed-fleet-miscount",
    "spot-preemption-storm",
    "flaky-uplink",
    "stale-broker",
)

#: Result digests at ``PINNED_SEED``.  A change that keeps every simulated
#: statistic bit-identical leaves these unchanged; one that alters results
#: must re-pin them and say why.
PINNED_SEED = 0
HELD_OUT_SEED = 7
PINNED_DIGESTS: Dict[str, str] = {
    "event-single": "9c2389e257b1a230",
    "batched-single": "871b740623ab1b30",
    "federation-dynamic": "e12639caaac82cea",
    "campaign-registry": "defa99d708adbe3c",
}


def single_site_spec(name: str, requests: int, execution: str) -> ScenarioSpec:
    """The macro-benchmark scenario shape: 120 users, uniform arrivals.

    The horizon stretches with the request count past 100k requests so the
    offered load, and with it the queueing regime, stays the same at every
    size.
    """
    return ScenarioSpec(
        name=name,
        description="benchmark workload: uniform arrivals, short task",
        users=120,
        duration_hours=max(1.0, requests / 100_000),
        slot_minutes=15.0,
        task_name="fibonacci",
        execution=execution,
        cloud=CloudSpec(instance_cap=64),
        workload=WorkloadSpec(pattern="uniform", target_requests=requests),
    )


def federation_spec(requests: int) -> ScenarioSpec:
    """The ``stale-broker`` federation, horizon scaled with the request count.

    Two sites behind the ``dynamic-load`` broker with spillover; load
    snapshots arrive two slots late and 25% are lost; 4% of offloads fail
    and are retried or fall back to local execution.  At 12k requests the
    registry runs it over half an hour, so the horizon scales from there to
    keep the per-slot load of the registry scenario.
    """
    return ScenarioSpec(
        name="federation-dynamic",
        description="stale-broker federation on the batched executor",
        users=50,
        duration_hours=0.5 * requests / 12_000,
        slot_minutes=7.5,
        task_name="bubblesort",
        execution="batched",
        workload=WorkloadSpec(pattern="uniform", target_requests=requests),
        policy=PolicySpec(promotion="static", promotion_probability=0.0),
        sites=MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="near",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=8),
                    wan_rtt_ms=6.0,
                    weight=2.0,
                    population_share=2.0,
                ),
                SiteSpec(
                    name="far",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=8),
                    wan_rtt_ms=28.0,
                    weight=1.0,
                    population_share=1.0,
                ),
            ),
            policy="dynamic-load",
            spillover=SpilloverSpec(queue_limit_fraction=0.8, prefer="nearest-rtt"),
        ),
        faults=FaultSpec(
            offload_failure_probability=0.04,
            control_plane=ControlPlaneFaults(
                snapshot_delay_slots=2,
                snapshot_loss_probability=0.25,
            ),
            retry=RetryPolicy(max_attempts=3, local_fallback=True),
        ),
    )


def build_specs(workload: str) -> List[ScenarioSpec]:
    """The specs one run of ``workload`` executes."""
    if workload == "event-single":
        return [single_site_spec("event-single", EVENT_REQUESTS, "event")]
    if workload == "batched-single":
        return [single_site_spec("batched-single", BATCHED_REQUESTS, "batched")]
    if workload == "federation-dynamic":
        return [federation_spec(FEDERATION_REQUESTS)]
    if workload == "campaign-registry":
        return [get_scenario(name) for name in REGISTRY_NAMES]
    raise ValueError(f"unknown workload {workload!r}; have {list(WORKLOADS)}")


def execute(
    workload: str, specs: Sequence[ScenarioSpec], seed: int, *, workers: int = 0
) -> List[ScenarioResult]:
    """Run one workload through the public API and return its results.

    ``workers`` applies to ``campaign-registry`` only; 0 means one per core.
    The single-scenario workloads call ``run_scenario`` with the seed; the
    campaign derives each scenario's seed from it by name.  Both are looked
    up on the package at call time, so the tracer's wrappers see the calls.
    """
    if workload == "campaign-registry":
        runner = scenarios.CampaignRunner(
            workers=workers or os.cpu_count() or 1, seed=seed
        )
        return list(runner.run(specs).results)
    return [scenarios.run_scenario(spec, seed=seed) for spec in specs]


def result_digest(results: Sequence[ScenarioResult]) -> str:
    """A digest of every field of every result, exact to the last float bit."""
    payload = [dataclasses.asdict(result) for result in results]
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def invariant_errors(results: Sequence[ScenarioResult]) -> List[str]:
    """Violations of the invariants every result must satisfy."""
    errors: List[str] = []
    for result in results:
        where = result.name
        if result.requests_total < 1:
            errors.append(f"{where}: no requests")
        if result.requests_total != result.requests_succeeded + result.requests_dropped:
            errors.append(
                f"{where}: total {result.requests_total} != succeeded "
                f"{result.requests_succeeded} + dropped {result.requests_dropped}"
            )
        if not 0.0 <= result.drop_rate <= 1.0:
            errors.append(f"{where}: drop rate {result.drop_rate} outside [0, 1]")
        p50, p95, p99 = (
            result.p50_response_ms,
            result.p95_response_ms,
            result.p99_response_ms,
        )
        if not all(math.isfinite(value) for value in (p50, p95, p99)) or not (
            p50 <= p95 <= p99
        ):
            errors.append(f"{where}: percentiles not ordered: {p50}, {p95}, {p99}")
    return errors


def check_outputs(workload: str, results: Sequence[ScenarioResult], seed: int) -> List[str]:
    """Every failed output check for one run; empty when the run is correct."""
    errors = invariant_errors(results)
    names = tuple(result.name for result in results)
    if workload == "campaign-registry" and names != REGISTRY_NAMES:
        errors.append(f"campaign ran {names}, expected {REGISTRY_NAMES}")
    if seed == PINNED_SEED:
        digest = result_digest(results)
        if digest != PINNED_DIGESTS[workload]:
            errors.append(
                f"digest {digest} != pinned {PINNED_DIGESTS[workload]} at seed {seed}"
            )
    return errors
