"""Micro-benchmarks: the hot primitives under the scenario runner.

Each benchmark times one primitive in isolation and reports its throughput:

* ``engine.events`` — raw discrete-event dispatch (schedule + run).
* ``distance.index`` — :class:`SlotDistanceIndex` in the adaptive model's
  grow-query-grow pattern (one append + one full-history query per period).
* ``channel.sampling`` — bulk log-normal RTT sampling with per-request
  diurnal modulation.
* ``arrival.generation`` — vectorised Poisson arrival-time generation.
* ``stats.extend`` — vectorised :meth:`OnlineStatistics.extend_array` folds.
* ``server.processor_sharing`` — a saturated (ρ≈0.9) processor-sharing
  server on the event engine: the submit/complete reschedule path whose heap
  churn the lazy-cancellation scheme targets.
* ``broker.slot_state`` — the dynamic federation broker consuming
  matrix-valued (site × acceleration group) live-state snapshots: per-group
  re-weighting, fluid queues and the spillover guard, per slot boundary
  (the ``spilled`` extra counts re-brokered requests, so a zero would show
  the walk's scalar spill search went unexercised).
* ``telemetry.registry`` — metrics-registry write path (counter inc, gauge
  set, histogram observe): the cost a run pays per instrument touch when
  ``--telemetry`` is on.
* ``telemetry.timeseries`` — the slot-series recorder's whole per-run cost:
  per-slot fleet appends plus the fold-time plan/fault ingestion that a
  ``--record-out`` run performs once.
* ``faults.injection`` — the vectorised retry-ladder walk of
  :func:`~repro.faults.overlay.build_fault_overlay` (baseline failures, a
  degraded window, a preemption window, backoff + local fallback) plus the
  fold-time :meth:`~repro.faults.overlay.FaultOverlay.fault_summary`: the
  whole per-run cost a scenario pays for carrying a ``FaultSpec``.

Budgets: ``smoke`` keeps every benchmark under ~100 ms for CI; ``full`` is
the default for real measurements.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.distance import SlotDistanceIndex
from repro.core.timeslots import TimeSlot
from repro.faults.overlay import build_fault_overlay
from repro.faults.spec import (
    DegradedWindow,
    FaultSpec,
    PreemptionWindow,
    RetryPolicy,
)
from repro.multisite.broker import DynamicBroker
from repro.multisite.spec import MultiSiteSpec, SiteSpec, SpilloverSpec
from repro.network.latency import lte_latency_model
from repro.perf.harness import BenchRecord, timed
from repro.scenarios.plan import RequestPlan
from repro.scenarios.spec import CloudSpec
from repro.simulation.engine import SimulationEngine
from repro.simulation.queues import ProcessorSharingServer
from repro.simulation.stats import OnlineStatistics
from repro.telemetry import DEFAULT_MS_EDGES, MetricsRegistry
from repro.workload.arrival import PoissonArrivalProcess

#: Per-benchmark operation budgets.
BUDGETS: Dict[str, Dict[str, int]] = {
    "smoke": {
        "engine_events": 5_000,
        "index_slots": 60,
        "index_users": 40,
        "channel_samples": 50_000,
        "arrival_rate_hz": 200,
        "arrival_seconds": 50,
        "stats_values": 50_000,
        "server_jobs": 5_000,
        "broker_slots": 8,
        "broker_requests": 4_000,
        "telemetry_ops": 15_000,
        "timeseries_slots": 240,
        "timeseries_requests": 20_000,
        "fault_requests": 20_000,
    },
    "full": {
        "engine_events": 200_000,
        "index_slots": 400,
        "index_users": 80,
        "channel_samples": 2_000_000,
        "arrival_rate_hz": 1_000,
        "arrival_seconds": 1_000,
        "stats_values": 2_000_000,
        "server_jobs": 100_000,
        "broker_slots": 48,
        "broker_requests": 60_000,
        "telemetry_ops": 400_000,
        "timeseries_slots": 2_880,
        "timeseries_requests": 500_000,
        "fault_requests": 500_000,
    },
}


def bench_engine_events(count: int) -> BenchRecord:
    """Schedule ``count`` no-op events and drain the queue."""

    def run() -> float:
        engine = SimulationEngine()
        callback = lambda: None  # noqa: E731 - a deliberate no-op payload
        for tick in range(count):
            engine.schedule_at(float(tick), callback)
        executed = engine.run()
        return float(executed)

    return timed("engine.events", run)


def bench_slot_distance_index(slots: int, users_per_slot: int, seed: int) -> BenchRecord:
    """Interleaved add + query over a growing history (the model's pattern)."""
    rng = np.random.default_rng(seed)
    population = max(users_per_slot * 4, 8)
    history = [
        TimeSlot.from_user_sets(
            index,
            {
                1: rng.choice(population, size=users_per_slot, replace=False).tolist(),
                2: rng.choice(population, size=users_per_slot // 2, replace=False).tolist(),
            },
        )
        for index in range(slots)
    ]

    def run() -> float:
        index = SlotDistanceIndex()
        queries = 0
        for slot in history:
            index.add(slot)
            index.distances_from(slot)
            queries += 1
        return float(queries)

    return timed("distance.index", run, slots=float(slots))


def bench_channel_sampling(samples: int, seed: int) -> BenchRecord:
    """Bulk RTT sampling with per-sample hour-of-day modulation."""
    model = lte_latency_model()
    rng = np.random.default_rng(seed)
    hours = np.linspace(0.0, 24.0, samples, endpoint=False)

    def run() -> float:
        drawn = model.sample_many_at(rng, hours)
        return float(drawn.size)

    return timed("channel.sampling", run)


def bench_arrival_generation(rate_hz: int, seconds: int, seed: int) -> BenchRecord:
    """Vectorised Poisson arrival generation over a long horizon."""
    process = PoissonArrivalProcess(rate_hz=float(rate_hz))
    rng = np.random.default_rng(seed)

    def run() -> float:
        times = process.arrival_times_array(
            rng, start_ms=0.0, end_ms=seconds * 1000.0
        )
        return float(times.size)

    return timed("arrival.generation", run, rate_hz=float(rate_hz))


def bench_stats_extend(values: int, seed: int) -> BenchRecord:
    """Vectorised online-statistics folding in slot-sized chunks."""
    rng = np.random.default_rng(seed)
    chunks = [rng.exponential(100.0, size=values // 64) for _ in range(64)]

    def run() -> float:
        stats = OnlineStatistics()
        for chunk in chunks:
            stats.extend_array(chunk)
        return float(stats.count)

    return timed("stats.extend", run)


def bench_processor_sharing(jobs: int, seed: int) -> BenchRecord:
    """A single processor-sharing server at ρ≈0.9 on the event engine.

    Every submit and completion exercises the lazy next-completion
    rescheduling; ops = jobs completed.
    """
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(10.0, size=jobs))
    work = rng.exponential(36.0, size=jobs)  # over 4 cores at rate 1/ms: rho 0.9

    def run() -> float:
        engine = SimulationEngine()
        server = ProcessorSharingServer(
            engine, service_rate_per_core=1.0, cores=4, name="bench"
        )
        sink = lambda sojourn_ms: None  # noqa: E731 - deliberate no-op sink

        def submit(index: int) -> None:
            server.submit(float(work[index]), sink)

        for index in range(jobs):
            engine.schedule_at(float(arrivals[index]), lambda i=index: submit(i))
        engine.run()
        return float(server.completed_jobs)

    return timed("server.processor_sharing", run)


def bench_broker_slot_state(slots: int, requests: int, seed: int) -> BenchRecord:
    """Dynamic brokering over matrix-valued (site × group) live state.

    A three-site, two-group federation with spillover under the per-group
    capacity signal: every slot boundary consumes one fresh capacity and
    admission matrix (pre-drawn, so only the broker's own cost is timed)
    through ``broker_slot`` — per-group re-weighting, fluid-queue updates
    and the spillover guard walk.  Ops = requests brokered.
    """
    users = 30
    federation = MultiSiteSpec(
        sites=tuple(
            SiteSpec(
                name=f"site-{index}",
                cloud=CloudSpec(
                    group_types={1: low, 2: high}, instance_cap=8
                ),
                wan_rtt_ms=5.0 + 10.0 * index,
                weight=1.0 + index,
            )
            for index, (low, high) in enumerate(
                [("t2.nano", "t2.medium"), ("t2.small", "t2.large"), ("t2.micro", "m4.4xlarge")]
            )
        ),
        policy="dynamic-load",
        spillover=SpilloverSpec(queue_limit_fraction=0.5),
    )
    site_count = len(federation.sites)
    group_count = len(federation.group_axis)
    rng = np.random.default_rng(seed)
    slot_ms = 60_000.0
    duration_ms = slots * slot_ms
    arrivals = np.sort(rng.uniform(0.0, duration_ms, size=requests))
    plan = RequestPlan(
        arrival_ms=arrivals,
        user_ids=rng.integers(0, users, size=requests),
        work_units=rng.uniform(100.0, 600.0, size=requests),
        jitter_z=np.zeros(requests),
        t1_ms=np.zeros(requests),
        t2_ms=np.zeros(requests),
        routing_ms=np.zeros(requests),
    )
    capacities = rng.uniform(0.5, 8.0, size=(slots, site_count, group_count))
    admissions = rng.integers(40, 200, size=(slots, site_count, group_count))
    remaining = np.zeros(site_count, dtype=np.int64)
    user_groups = rng.integers(1, 3, size=users)

    def drive() -> DynamicBroker:
        broker = DynamicBroker(
            plan=plan,
            users=users,
            federation=federation,
            duration_ms=duration_ms,
            access_rtt_ms=[40.0] * site_count,
        )
        for index in range(slots):
            broker.broker_slot(
                index * slot_ms,
                (index + 1) * slot_ms,
                capacity_work_per_ms=capacities[index],
                remaining_instance_cap=remaining,
                admission_capacity=admissions[index],
                group_of_user=user_groups,
            )
        return broker

    def run() -> float:
        return float(np.count_nonzero(drive().site_ids >= 0))

    # One untimed pass first: the broker path crosses several modules whose
    # first call pays import/JIT-ish warmup noise a 10 ms smoke budget would
    # otherwise amplify into false CI regressions.  It also supplies the
    # ``spilled`` extra.
    spilled = drive().requests_spilled
    return timed("broker.slot_state", run, slots=float(slots), spilled=float(spilled))


def bench_telemetry_registry(ops: int, seed: int) -> BenchRecord:
    """Hammer the registry's write path: inc + set + observe per iteration.

    Instruments are resolved once (as the publish helpers do) so the timed
    loop measures instrument updates, not name lookups; ops = 3 × iterations
    (one write per instrument kind).
    """
    rng = np.random.default_rng(seed)
    samples = rng.exponential(800.0, size=ops)

    def run() -> float:
        registry = MetricsRegistry()
        counter = registry.counter("bench.requests_total")
        gauge = registry.gauge("bench.inflight")
        histogram = registry.histogram("bench.response_ms", DEFAULT_MS_EDGES)
        for index in range(ops):
            counter.inc()
            gauge.set(float(index))
            histogram.observe(samples[index])
        return float(ops * 3)

    return timed("telemetry.registry", run)


class _FakeFleet:
    """A provisioner stand-in for the recorder bench (attribute reads only)."""

    __slots__ = ("running_count", "running_instances", "launched_count")

    def __init__(self) -> None:
        self.running_count = 0
        self.running_instances: List[int] = []
        self.launched_count = 0

    def step(self, delta: int) -> None:
        self.launched_count += max(delta, 0)
        size = max(len(self.running_instances) + delta, 0)
        self.running_instances = list(range(size))
        self.running_count = max(size - 1, 0)  # one instance always booting


def bench_timeseries_recorder(slots: int, requests: int, seed: int) -> BenchRecord:
    """The slot-series recorder's whole per-run cost.

    Per slot: one ``sample_fleet`` (three appends) against a churning fake
    fleet — the only recorder work on the executor path.  Then the fold-time
    pass: ``ingest_plan`` plus ``ingest_faults`` over a synthetic overlay
    (four masked searchsorted/bincount sweeps), and the ``as_dict`` export a
    ``--record-out`` run serialises.  Ops = requests ingested + slot samples.
    """
    from repro.faults.overlay import OUTCOME_DEGRADED_LOCAL, OUTCOME_DROPPED
    from repro.telemetry.timeseries import SlotSeriesRecorder

    rng = np.random.default_rng(seed)
    slot_ms = 60_000.0
    duration_ms = slots * slot_ms
    plan = RequestPlan(
        arrival_ms=np.sort(rng.uniform(0.0, duration_ms, size=requests)),
        user_ids=rng.integers(0, 50, size=requests),
        work_units=rng.uniform(100.0, 600.0, size=requests),
        jitter_z=np.zeros(requests),
        t1_ms=np.zeros(requests),
        t2_ms=np.zeros(requests),
        routing_ms=np.zeros(requests),
    )

    class _Overlay:
        attempts = rng.integers(1, 4, size=requests)
        rerouted = rng.random(requests) < 0.1
        outcome = rng.choice(
            np.array([0, OUTCOME_DEGRADED_LOCAL, OUTCOME_DROPPED], dtype=np.int8),
            size=requests,
            p=[0.9, 0.06, 0.04],
        )

    deltas = rng.integers(-2, 4, size=slots)

    def run() -> float:
        recorder = SlotSeriesRecorder()
        fleet = _FakeFleet()
        for slot in range(slots):
            fleet.step(int(deltas[slot]))
            recorder.sample_fleet(slot, fleet)
        recorder.ingest_plan(plan, slot_ms=slot_ms, periods=slots)
        recorder.ingest_faults(
            _Overlay(), plan, slot_ms=slot_ms, periods=slots
        )
        recorder.as_dict()
        return float(requests + slots)

    # One untimed pass to absorb first-call import/allocation warmup, as the
    # broker bench does — the smoke budget is small enough to amplify it.
    run()
    return timed("telemetry.timeseries", run, slots=float(slots))


def bench_fault_injection(requests: int, seed: int) -> BenchRecord:
    """Retry-ladder materialisation + fold summary over a synthetic plan.

    The spec keeps all three global fault processes active (a 5% baseline
    failure probability, a mid-run degraded window with a 25% surcharge and
    a mid-run preemption window) so every attempt round draws and applies
    its full vector pass; ops = requests resolved.
    """
    users = 50
    duration_ms = 3_600_000.0
    rng = np.random.default_rng(seed)
    plan = RequestPlan(
        arrival_ms=np.sort(rng.uniform(0.0, duration_ms, size=requests)),
        user_ids=rng.integers(0, users, size=requests),
        work_units=rng.uniform(100.0, 600.0, size=requests),
        jitter_z=np.zeros(requests),
        t1_ms=np.full(requests, 40.0),
        t2_ms=np.full(requests, 40.0),
        routing_ms=np.full(requests, 5.0),
    )
    faults = FaultSpec(
        offload_failure_probability=0.05,
        degraded_windows=(
            DegradedWindow(
                start=0.3, end=0.6, rtt_multiplier=2.5, failure_probability=0.25
            ),
        ),
        preemptions=(
            PreemptionWindow(start=0.45, end=0.7, kill_probability=0.4),
        ),
        retry=RetryPolicy(
            max_attempts=3, attempt_timeout_ms=1500.0, local_fallback=True
        ),
    )
    local_speeds = np.full(users, 0.25)

    def run() -> float:
        overlay = build_fault_overlay(
            plan=plan,
            faults=faults,
            duration_ms=duration_ms,
            rng=np.random.default_rng(seed + 1),
        )
        overlay.set_local_execution(plan, local_speeds)
        overlay.fault_summary(users, plan)
        return float(len(overlay))

    return timed("faults.injection", run)


def run_micro_suite(budget: str = "full", seed: int = 0) -> List[BenchRecord]:
    """Run every micro-benchmark at the given budget."""
    if budget not in BUDGETS:
        raise ValueError(f"budget must be one of {sorted(BUDGETS)}, got {budget!r}")
    sizes = BUDGETS[budget]
    return [
        bench_engine_events(sizes["engine_events"]),
        bench_slot_distance_index(sizes["index_slots"], sizes["index_users"], seed),
        bench_channel_sampling(sizes["channel_samples"], seed),
        bench_arrival_generation(
            sizes["arrival_rate_hz"], sizes["arrival_seconds"], seed
        ),
        bench_stats_extend(sizes["stats_values"], seed),
        bench_processor_sharing(sizes["server_jobs"], seed),
        bench_broker_slot_state(sizes["broker_slots"], sizes["broker_requests"], seed),
        bench_telemetry_registry(sizes["telemetry_ops"], seed),
        bench_timeseries_recorder(
            sizes["timeseries_slots"], sizes["timeseries_requests"], seed
        ),
        bench_fault_injection(sizes["fault_requests"], seed),
    ]
