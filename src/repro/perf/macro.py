"""Macro-benchmarks: end-to-end scenario runs in both execution modes.

The macro suite answers the question the micro suite cannot: how fast is a
*whole* scenario — request plan, data plane, control plane, metric assembly —
and how much faster is the batched fast path than the event path on the same
seed and plan?  Each size runs the same well-provisioned scenario (the fleet
is sized so the system is busy but not absurdly saturated, where the two
service models legitimately diverge) once per execution mode and records
requests per second; the batched record carries the measured speedup as an
extra.

The 1M-request size is batched-only (the event path would take minutes) and
only runs at the ``xl`` budget.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Sequence

from repro.perf.harness import BenchRecord
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import CloudSpec, ScenarioSpec, WorkloadSpec

#: Macro sizes per budget: (requests, run_event_path_too).
SIZES: Dict[str, Sequence["tuple[int, bool]"]] = {
    "smoke": ((2_000, True),),
    "full": ((10_000, True), (100_000, True)),
    "xl": ((10_000, True), (100_000, True), (1_000_000, False)),
}


def perf_scenario(requests: int, execution: str = "event") -> ScenarioSpec:
    """The canonical macro-benchmark scenario at a given request count.

    The horizon stretches with the request count beyond 100k so the offered
    load (and hence the queueing regime) stays comparable across sizes —
    the 1M run measures simulator scaling, not overload behaviour.
    """
    return ScenarioSpec(
        name=f"perf-{requests}",
        description="macro-benchmark workload (uniform arrivals, short task)",
        users=120,
        duration_hours=max(1.0, requests / 100_000),
        slot_minutes=15.0,
        task_name="fibonacci",
        execution=execution,
        cloud=CloudSpec(instance_cap=64),
        workload=WorkloadSpec(pattern="uniform", target_requests=requests),
    )


def bench_scenario(requests: int, execution: str, seed: int) -> BenchRecord:
    """Time one scenario run; ops = requests processed."""
    spec = perf_scenario(requests, execution)
    started = time.perf_counter()
    result = run_scenario(spec, seed=seed)
    elapsed = time.perf_counter() - started
    return BenchRecord(
        name=f"macro.{execution}.{requests}",
        wall_s=elapsed,
        ops=float(result.requests_total),
        extras={
            "drop_rate": result.drop_rate,
            "mean_response_ms": result.mean_response_ms,
        },
    )


def run_macro_suite(budget: str = "full", seed: int = 0) -> List[BenchRecord]:
    """Run the macro sizes for ``budget``; batched records carry speedups."""
    if budget not in SIZES:
        raise ValueError(f"budget must be one of {sorted(SIZES)}, got {budget!r}")
    records: List[BenchRecord] = []
    for requests, include_event in SIZES[budget]:
        event_record = None
        if include_event:
            event_record = bench_scenario(requests, "event", seed)
            records.append(event_record)
        batched_record = bench_scenario(requests, "batched", seed)
        if event_record is not None:
            extras = dict(batched_record.extras)
            extras["speedup_vs_event"] = (
                batched_record.ops_per_s / event_record.ops_per_s
            )
            batched_record = dataclasses.replace(batched_record, extras=extras)
        records.append(batched_record)
    return records
