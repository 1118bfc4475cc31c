"""Run a scenario over its N >= 1 sites (event and batched modes).

This is the one runner behind :func:`repro.scenarios.runner.run_scenario`
and behind the Section VI-C experiment
(:mod:`repro.experiments.figure_dynamic`), which reads its per-request
columns from the state :func:`execute_multisite` returns.  It builds one
serving stack per site (:mod:`repro.multisite.federation`), lets the global
broker partition the pre-drawn request plan across sites
(:mod:`repro.multisite.broker`), samples each request's network latency from
its *serving* site's access model plus the WAN penalty, and then drives the
plan through either

* the **event** executor — per-request events on the shared engine, one SDN
  front-end per site, exact processor-sharing service; or
* the **batched** executor — per-site Lindley recursions over the
  site-partitioned plan, reusing the single-site vectorised data plane
  (:func:`repro.scenarios.batched.serve_slot_requests`) with one instance
  state table per site.

A spec without a ``sites:`` section runs as an *implicit* one-site
federation: the site is derived from the spec (its cloud and network, no WAN
RTT, no outages, the single-site stream names), has nothing to broker and is
folded into a single-site result.  Its batched runs keep the single-site
data plane, :func:`repro.scenarios.batched.execute_batched`, whose dispatch
times round differently from the federation's batched executor.

Both executors consult the same broker object through one shared
slot-boundary step (:func:`run_slot_brokering`): static policies keep their
plan-time pre-partition (served slot by slot through a
:class:`~repro.multisite.broker.StaticSlotBroker` adapter) while the
``dynamic-load`` policy re-brokers every slot from live per-site state and
optionally spills overflow across sites mid-slot
(:class:`~repro.multisite.broker.DynamicBroker`).  Either way site
assignment, arrivals, work, RTTs and jitter are identical across modes;
only the documented batched queueing approximations differ.  The control
plane is fully per-site: each site's adaptive model observes only the
requests that site served and its autoscaler re-shapes only that site's
fleet, at the same slot boundaries in both modes.

Requests that arrive while no site is available (federation-wide outage) are
dropped at the broker: they fail back to the device immediately at arrival
time and are counted in ``requests_unrouted`` (and in the federation-wide
drop totals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.model import AdaptiveModel
from repro.core.prediction import prediction_accuracy
from repro.faults.overlay import (
    FAULT_CONTROL_STREAM,
    FAULT_STREAM,
    OUTCOME_DEGRADED_LOCAL,
    OUTCOME_OK,
    MultisiteFaultPlane,
    build_fault_overlay,
)
from repro.mobile.device import DEVICE_PROFILES, MobileDevice
from repro.mobile.moderator import (
    BatteryAwarePolicy,
    Moderator,
    ResponseTimeThresholdPolicy,
    StaticProbabilityPolicy,
)
from repro.mobile.tasks import DEFAULT_TASK_POOL
from repro.multisite.broker import (
    UNROUTED,
    BrokeredPlan,
    DynamicBroker,
    StaticSlotBroker,
    broker_assign,
)
from repro.multisite.federation import Federation, SiteRuntime, build_federation
from repro.scenarios.batched import (
    DRAIN_MARGIN_MS,
    InstanceState,
    clamp_table,
    execute_batched,
    fold_slot_devices,
    serve_slot_requests,
)
from repro.scenarios.plan import RequestPlan, build_request_plan
from repro.scenarios.runner import (
    ScenarioResult,
    SiteGroupResult,
    SiteResult,
    build_arrival_process,
)
from repro.scenarios.spec import ScenarioSpec
from repro.sdn.accelerator import (
    DeliveryBuffer,
    RequestColumns,
    RoundRobinRouting,
    SDNAccelerator,
)
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams
from repro.simulation.stats import linear_percentiles
from repro.telemetry import NULL_TELEMETRY, resolve_telemetry
from repro.telemetry.publish import (
    publish_broker,
    publish_devices,
    publish_engine,
    publish_faults,
    publish_federation,
    publish_requests,
    publish_serving_stack,
)


@dataclass
class SiteExecutionStats:
    """One site's data-plane tallies, shared by both executors."""

    requests_total: int = 0
    requests_dropped: int = 0
    success_chunks: List[np.ndarray] = field(default_factory=list)
    #: Per requesting-user acceleration group: requests seen / dropped at
    #: this site (the group of the *user's promotion level* at routing
    #: time, not the post-clamp serving group — the breakdown the
    #: group-aware broker is judged by).
    group_requests: Dict[int, int] = field(default_factory=dict)
    group_dropped: Dict[int, int] = field(default_factory=dict)

    def tally_groups(self, groups: np.ndarray, failed: np.ndarray) -> None:
        """Add requests and drops per group, ascending (groups are small ints)."""
        totals = np.bincount(groups)
        drops = np.bincount(groups[failed], minlength=totals.size)
        requests, dropped = self.group_requests, self.group_dropped
        for group in np.flatnonzero(totals).tolist():
            requests[group] = requests.get(group, 0) + int(totals[group])
            if drops[group]:
                dropped[group] = dropped.get(group, 0) + int(drops[group])

    @property
    def success_response_ms(self) -> np.ndarray:
        if not self.success_chunks:
            return np.empty(0, dtype=float)
        return np.concatenate(self.success_chunks)


@dataclass
class FederationMetrics:
    """Federation-wide data-plane outputs plus the per-site breakdown."""

    requests_total: int
    requests_dropped: int
    requests_unrouted: int
    success_response_ms: np.ndarray
    utilization_samples: List[float]
    per_site: List[SiteExecutionStats]


def prediction_accuracy_samples(autoscaler: Autoscaler, model: AdaptiveModel) -> List[float]:
    """Realised accuracy of each of an autoscaler's predictive decisions.

    A decision made at the end of slot ``i`` predicted slot ``i + 1``; once
    that slot is in the model's history the prediction can be scored.
    """
    accuracies: List[float] = []
    history = model.history
    for action in autoscaler.actions:
        decision = action.decision
        if decision is None:
            continue
        realised_index = decision.current_slot.index + 1
        if realised_index < len(history):
            accuracies.append(
                prediction_accuracy(
                    decision.prediction.predicted_slot, history[realised_index]
                )
            )
    return accuracies


def _build_promotion_policy(spec: ScenarioSpec):
    policy = spec.policy
    if policy.promotion == "static":
        return StaticProbabilityPolicy(probability=policy.promotion_probability)
    if policy.promotion == "threshold":
        return ResponseTimeThresholdPolicy(threshold_ms=policy.promotion_threshold_ms)
    return BatteryAwarePolicy(base_probability=policy.promotion_probability)


def sample_network_for_sites(
    *,
    plan: RequestPlan,
    brokered: BrokeredPlan,
    federation: Federation,
) -> RequestPlan:
    """Fill the plan's T1/T2 from each request's serving site.

    Each site's channel samples its own partition in arrival order (one bulk
    draw per hop per site, from the site's named stream), and routed requests
    pay the broker's WAN penalty on top of T1 — identically in both execution
    modes, since this happens before either executor runs.
    """
    t1 = np.zeros(len(plan), dtype=float)
    t2 = np.zeros(len(plan), dtype=float)
    hours = (plan.arrival_ms / 3_600_000.0) % 24.0
    for site in federation:
        picks = brokered.indices_for_site(site.index)
        if picks.size == 0:
            continue
        if picks.size == len(plan):
            picks = slice(None)  # one site serves the whole plan
        t1[picks] = site.channel.sample_t1_many(hours[picks])
        t2[picks] = site.channel.sample_t2_many(hours[picks])
    t1 += brokered.extra_rtt_ms
    return plan.with_network(t1, t2)


def run_slot_brokering(
    slot_broker,
    *,
    plan: RequestPlan,
    federation: Federation,
    start_ms: float,
    end_ms: float,
    group_of_user: "np.ndarray | None" = None,
    telemetry=NULL_TELEMETRY,
    slot_index: "int | None" = None,
    fault_plane: "MultisiteFaultPlane | None" = None,
) -> "tuple[int, int]":
    """The single slot-boundary brokering step both executors call.

    For the static policies this merely locates the slot window (assignment
    happened at plan time).  For the dynamic broker it publishes the live
    (site × acceleration group) state — the serving-rate and admission
    matrices and the remaining instance headroom of the fleets as the
    autoscalers left them at the previous boundary — plus the executor's
    current per-user promotion-level view (``group_of_user``), lets the
    broker assign the slot's requests per group (including mid-slot
    spillover), and then samples each routed request's T1/T2 from its
    *serving* site's channel, WAN penalty applied on top.  Sampling happens
    here, in slot order and per site in federation order, so both execution
    modes consume exactly the same draws from the same named streams.

    ``fault_plane`` (when faults are enabled) rides along here — the one
    per-slot step shared by both executors — so every fault decision lands
    in identical order in both modes: the dynamic broker's load snapshots
    pass through control-plane staleness/loss first, then the freshly
    brokered window goes through outage kills and retry failover, and
    degraded-RTT factors are applied right after the dynamic network
    sampling.
    """
    with telemetry.span("slot.broker", slot=slot_index):
        if slot_broker.is_dynamic:
            capacity = federation.capacity_snapshot()
            remaining_cap = np.asarray(
                [site.remaining_instance_cap() for site in federation],
                dtype=np.int64,
            )
            admission = federation.admission_snapshot()
            if fault_plane is not None:
                capacity, remaining_cap, admission = fault_plane.stale_snapshots(
                    capacity, remaining_cap, admission
                )
            i0, i1 = slot_broker.broker_slot(
                start_ms,
                end_ms,
                capacity_work_per_ms=capacity,
                remaining_instance_cap=remaining_cap,
                admission_capacity=admission,
                group_of_user=group_of_user,
            )
        else:
            i0, i1 = slot_broker.broker_slot(start_ms, end_ms)
        if fault_plane is not None and i1 > i0:
            fault_plane.process_window(slot_broker, plan, i0, i1, group_of_user)
        if slot_broker.samples_network and i1 > i0:
            hours = (plan.arrival_ms[i0:i1] / 3_600_000.0) % 24.0
            window_sites = slot_broker.site_ids[i0:i1]
            for site in federation:
                picks = np.flatnonzero(window_sites == site.index)
                if picks.size == 0:
                    continue
                plan.t1_ms[i0 + picks] = site.channel.sample_t1_many(hours[picks])
                plan.t2_ms[i0 + picks] = site.channel.sample_t2_many(hours[picks])
            routed = np.flatnonzero(window_sites >= 0)
            if routed.size:
                plan.t1_ms[i0 + routed] += slot_broker.extra_rtt_ms[i0 + routed]
            if fault_plane is not None:
                fault_plane.apply_network_factor(plan, i0, i1)
        return i0, i1


# ---------------------------------------------------------------------------
# Event executor
# ---------------------------------------------------------------------------


class _PumpColumns:
    """The plan columns the arrival pump reads, as Python scalars by chunk.

    One ``tolist`` per column and chunk replaces a numpy scalar index plus
    ``float``/``int`` cast per request and column; the values are the same.
    Memory stays at one chunk, whatever the plan size.  The slot-boundary
    broker and fault plane rewrite the site, fault verdict, T1/T2 and routing
    of their window ``[i0, i1)`` before its first arrival, so the executor
    calls :meth:`invalidate` after every brokering step, which drops the
    loaded chunk.  Chunks loaded after it stop at ``i1``: the next brokering
    step would drop anything beyond.
    """

    CHUNK = 4096

    def __init__(self, plan: RequestPlan, site_ids: np.ndarray, fault_outcome) -> None:
        self._plan = plan
        self._site_ids = site_ids
        self._fault_outcome = fault_outcome
        self._count = len(plan)
        self._limit = self._count
        self.start = 0
        self.end = 0
        self.columns: tuple = ()

    def invalidate(self, window_end: int) -> None:
        """Drop the loaded chunk; later chunks stop at ``window_end``."""
        self.end = 0
        self._limit = window_end

    def load(self, index: int) -> None:
        """Load the chunk starting at request ``index``.

        ``columns`` holds arrival (one entry past the chunk, for the next
        arrival), user, site, fault verdict (``None`` without faults), work,
        T1, T2, routing and jitter.
        """
        limit = self._limit if index < self._limit else self._count
        end = min(index + self.CHUNK, limit)
        plan = self._plan
        window = slice(index, end)
        outcome = self._fault_outcome
        self.start, self.end = index, end
        self.columns = (
            plan.arrival_ms[index : end + 1].tolist(),
            plan.user_ids[window].tolist(),
            self._site_ids[window].tolist(),
            None if outcome is None else outcome[window].tolist(),
            plan.work_units[window].tolist(),
            plan.t1_ms[window].tolist(),
            plan.t2_ms[window].tolist(),
            plan.routing_ms[window].tolist(),
            plan.jitter_z[window].tolist(),
        )


def execute_event_multisite(
    *,
    spec: ScenarioSpec,
    plan: RequestPlan,
    slot_broker,
    engine: SimulationEngine,
    federation: Federation,
    devices: Dict[int, MobileDevice],
    moderators: Dict[int, Moderator],
    duration_ms: float,
    slot_ms: float,
    telemetry=NULL_TELEMETRY,
    fault_plane: "MultisiteFaultPlane | None" = None,
) -> FederationMetrics:
    """Drive the brokered plan through per-site SDN front-ends on one engine.

    This is the exact simulation: per-request events, processor-sharing
    service, promotions applied at delivery time.  All per-request randomness
    comes from the plan, so it consumes the same draws as the batched path.

    Requests whose fault verdict is not ``OUTCOME_OK`` never reach an
    accelerator; their degradation/drop is tallied at fold time, from the
    overlay, identically to the batched path.

    The engine runs in per-period chunks (``engine.run`` up to each slot
    boundary, then a final drain) so the tracer can attribute wall time to
    ``slot.serve`` spans.  Chunking is unconditional — the engine pops the
    same events in the same order either way (the heap is untouched and the
    ``time_ms > until_ms`` stop condition is exact), so the telemetry-on and
    telemetry-off paths share one code path and one result.
    """
    per_site: List[SiteExecutionStats] = [SiteExecutionStats() for _ in federation]
    unrouted = 0
    fault_outcome = None if fault_plane is None else fault_plane.overlay.outcome
    count = len(plan)
    pump = _PumpColumns(plan, slot_broker.site_ids, fault_outcome)
    user_ids = plan.user_ids

    def _on_deliver(row: int, response_ms: "float | None", delivered_ms: float) -> None:
        user_id = int(user_ids[row])
        if response_ms is None:
            devices[user_id].record_failure()
        else:
            # The delivery instant, not the engine clock: with buffered
            # delivery the clock may already be past it when the buffer
            # drains.
            moderators[user_id].observe(devices[user_id], response_ms, delivered_ms)

    # One delivery buffer and one column set shared by every site front-end
    # (a row reaches at most one site), so deliveries keep one global (time,
    # push-order) sequence even when per-user moderators span sites.  The
    # buffer is drained at each submission and slot boundary (the points
    # where delivery effects become observable), delivering only results
    # strictly before now: a result due at the same instant as a submission
    # or boundary is delivered after it.
    columns = RequestColumns(count)
    buffer = DeliveryBuffer()
    for site in federation:
        site.accelerator = SDNAccelerator(
            engine,
            site.backend,
            columns,
            delivery_buffer=buffer,
            on_deliver=_on_deliver,
            routing_policy=(
                RoundRobinRouting() if spec.policy.routing == "round-robin" else None
            ),
        )
    accelerators = [site.accelerator for site in federation]
    drain = buffer.drain_until
    clock = engine.clock

    # Arrival pump: each submission schedules the next one instead of all of
    # them being pre-scheduled, keeping the event heap at O(in-flight) rather
    # than O(requests).  ``front=True`` keeps arrivals ahead of every
    # run-time event at the same instant, as pre-scheduling did.  At most one
    # arrival is pending, so one callback reading a cursor serves them all.
    cursor = 0

    def _submit() -> None:
        nonlocal unrouted, cursor
        index = cursor
        cursor = index + 1
        drain(clock._now_ms)
        if index >= pump.end:
            pump.load(index)
        offset = index - pump.start
        arrival, user, site, verdict, work, t1, t2, routing, jitter = pump.columns
        if cursor < count:
            engine.schedule_at(
                arrival[offset + 1], _submit, label="scenario:request", front=True
            )
        user_id = user[offset]
        device = devices[user_id]
        device.requests_sent += 1
        site_index = site[offset]
        if site_index == UNROUTED:
            # Federation-wide outage: the broker rejects the request
            # immediately; no site ever sees it.
            unrouted += 1
            device.record_failure()
            return
        if verdict is not None and verdict[offset] != OUTCOME_OK:
            # Degraded-local / fault-dropped: never dispatches; the verdict
            # is tallied at fold time, from the overlay.
            return
        accelerators[site_index].submit_planned(
            row=index,
            acceleration_group=device.acceleration_group,
            work_units=work[offset],
            t1_ms=t1[offset],
            t2_ms=t2[offset],
            routing_ms=routing[offset],
            jitter_z=jitter[offset],
        )

    # --- utilization sampling (federation-wide and per site) ----------------
    utilization_samples: List[float] = []
    sample_interval_ms = max(slot_ms / 10.0, 30_000.0)

    def _sample_utilization() -> None:
        # Core occupancy across the running fleets: jobs in service (capped
        # at each instance's core count) over total cores.  Admission limits
        # are far above core counts, so they would flatten the signal.
        busy = 0.0
        cores = 0.0
        for site in federation:
            site_busy, site_cores = site.sample_utilization(
                lambda instance: instance.in_service
            )
            busy += site_busy
            cores += site_cores
        if cores > 0:
            utilization_samples.append(busy / cores)
        if engine.now_ms + sample_interval_ms <= duration_ms:
            engine.schedule_after(
                sample_interval_ms, _sample_utilization, label="multisite:utilization"
            )

    # Per site, how many of its accelerator's delivered rows the previous
    # slot-boundary control step has already seen.
    delivered_upto = [0] * len(federation)

    # Everything that schedules the run's opening events sits in one span, so
    # its wall time is attributed.  The schedule order is part of the result:
    # boundaries, then the first arrival, then the first utilization sample.
    with telemetry.span("scenario.schedule"):
        # --- slot-boundary brokering + per-site provisioning control loops --
        # Boundary events are front-scheduled before the first arrival, so at
        # equal timestamps they run ahead of every arrival (the pump's later
        # front events) and of every run-time event.  Interleaving broker(k) /
        # scale(k) per period yields exactly the batched executor's boundary
        # ordering: scale(k) → broker(k+1) → arrivals of slot k+1.  The implicit
        # site has nothing to broker and schedules no broker event (the engine's
        # event count is part of the canonical record).
        for period in range(1, spec.periods + 1):
            period_start = (period - 1) * slot_ms
            period_end = min(period * slot_ms, duration_ms)

            if not federation.implicit:

                def _broker(
                    start: float = period_start,
                    end: float = period_end,
                    slot_index: int = period - 1,
                ) -> None:
                    drain(engine.now_ms)
                    _, window_end = run_slot_brokering(
                        slot_broker,
                        plan=plan,
                        federation=federation,
                        start_ms=start,
                        end_ms=end,
                        # The live promotion-level view at this boundary:
                        # promotions from requests delivered before it have
                        # already been applied (the drain above delivers them).
                        group_of_user=np.asarray(
                            [
                                devices[user].acceleration_group
                                for user in range(spec.users)
                            ],
                            dtype=np.int64,
                        ),
                        telemetry=telemetry,
                        slot_index=slot_index,
                        fault_plane=fault_plane,
                    )
                    pump.invalidate(window_end)

                engine.schedule_at(
                    period_start,
                    _broker,
                    label=f"multisite:broker-{period}",
                    front=True,
                )
            for site in federation:

                def _scale(
                    site: SiteRuntime = site,
                    start: float = period_start,
                    end: float = period_end,
                    slot_index: int = period - 1,
                ) -> None:
                    drain(engine.now_ms)
                    with telemetry.span("slot.control", slot=slot_index):
                        # The rows delivered since the previous boundary, in
                        # delivery order.  The slot counts the ones that
                        # arrived in it: a request delivered at or after its
                        # slot's boundary lands in a later scan and counts in
                        # no slot.
                        delivered = site.accelerator.delivered
                        rows = np.asarray(
                            delivered[delivered_upto[site.index]:], dtype=np.int64
                        )
                        delivered_upto[site.index] = len(delivered)
                        site.autoscaler.run_slot(
                            columns.served_group[rows],
                            user_ids[rows],
                            plan.arrival_ms[rows] >= start,
                            end,
                        )
                        # Post-scaling fleet state at the boundary, per site —
                        # sampled at the same instant in the batched executor.
                        telemetry.recorder.sample_fleet(
                            slot_index, site.provisioner, prefix=site.metric_prefix
                        )

                engine.schedule_at(
                    period_end,
                    _scale,
                    label=f"multisite:scale-{site.name}-{period}",
                    front=True,
                )

        if count:
            engine.schedule_at(
                float(plan.arrival_ms[0]), _submit, label="scenario:request", front=True
            )
        engine.schedule_at(0.0, _sample_utilization, label="multisite:utilization")

    # Run to the end plus a drain margin for in-flight requests, one chunk
    # per provisioning period so wall time lands in per-slot serve spans.
    for period in range(1, spec.periods + 1):
        period_end = min(period * slot_ms, duration_ms)
        with telemetry.span("slot.serve", slot=period - 1):
            engine.run(until_ms=period_end)
    with telemetry.span("slot.drain"):
        engine.run(until_ms=duration_ms + DRAIN_MARGIN_MS)
        buffer.flush(duration_ms + DRAIN_MARGIN_MS)

    with telemetry.span("stats.fold"):
        for site in federation:
            # In delivery order: numpy's pairwise sums over the responses
            # depend on it.
            log = np.asarray(site.accelerator.delivered, dtype=np.int64)
            success = columns.success[log]
            failed = ~success
            stats = per_site[site.index]
            stats.requests_total = int(log.size)
            stats.requests_dropped = int(np.count_nonzero(failed))
            stats.success_chunks.append(columns.response_ms[log[success]])
            # Per-group site tallies key on the *requesting* group — the
            # user's promotion level as routed, not the post-clamp serving
            # group — so both executors report the same cohort breakdown.
            stats.tally_groups(columns.requested_group[log], failed)
        successes = (
            np.concatenate([stats.success_response_ms for stats in per_site])
            if per_site
            else np.empty(0, dtype=float)
        )
    return FederationMetrics(
        requests_total=sum(stats.requests_total for stats in per_site) + unrouted,
        requests_dropped=sum(stats.requests_dropped for stats in per_site) + unrouted,
        requests_unrouted=unrouted,
        success_response_ms=successes,
        utilization_samples=utilization_samples,
        per_site=per_site,
    )


# ---------------------------------------------------------------------------
# Batched executor
# ---------------------------------------------------------------------------


def execute_batched_multisite(
    *,
    spec: ScenarioSpec,
    plan: RequestPlan,
    slot_broker,
    engine: SimulationEngine,
    federation: Federation,
    devices: Dict[int, MobileDevice],
    moderators: Dict[int, Moderator],
    duration_ms: float,
    slot_ms: float,
    telemetry=NULL_TELEMETRY,
    fault_plane: "MultisiteFaultPlane | None" = None,
) -> FederationMetrics:
    """Run the federation's data plane slot by slot, one Lindley pass per site."""
    horizon = duration_ms + DRAIN_MARGIN_MS
    group_of_user = np.asarray(
        [devices[user].acceleration_group for user in range(spec.users)], dtype=np.int64
    )
    highest_group = max(int(group_of_user.max(initial=0)), federation.highest_group())
    round_robin = spec.policy.routing == "round-robin"

    # One vectorised-FCFS state table and round-robin cursor per site.
    site_states: List[Dict[str, InstanceState]] = [dict() for _ in federation.sites]
    rr_cursors = np.zeros(len(federation.sites), dtype=np.int64)

    def state_for_site(site_index: int):
        states = site_states[site_index]

        def state_for(instance) -> InstanceState:
            state = states.get(instance.instance_id)
            if state is None:
                state = InstanceState.for_instance(instance)
                states[instance.instance_id] = state
            return state

        return state_for

    state_fors = [state_for_site(site.index) for site in federation]

    sample_interval_ms = max(slot_ms / 10.0, 30_000.0)
    sample_times = [0.0]
    while sample_times[-1] + sample_interval_ms <= duration_ms:
        sample_times.append(sample_times[-1] + sample_interval_ms)
    sample_cursor = 0
    utilization_samples: List[float] = []

    def append_utilization(t_ms: float) -> None:
        busy = 0.0
        cores_total = 0.0
        for site in federation:
            states = site_states[site.index]

            def in_service(instance) -> float:
                state = states.get(instance.instance_id)
                return float(state.in_service_at(t_ms)) if state else 0.0

            site_busy, site_cores = site.sample_utilization(in_service)
            busy += site_busy
            cores_total += site_cores
        if cores_total > 0:
            utilization_samples.append(busy / cores_total)

    arrival = plan.arrival_ms
    site_ids = slot_broker.site_ids
    fault_outcome = None if fault_plane is None else fault_plane.overlay.outcome

    requests_total = 0
    dropped_total = 0
    unrouted_total = 0
    success_chunks: List[np.ndarray] = []
    per_site = [SiteExecutionStats() for _ in federation.sites]

    for period in range(1, spec.periods + 1):
        start = (period - 1) * slot_ms
        end = min(period * slot_ms, duration_ms)
        # The slot-boundary brokering step runs first, against the fleet the
        # previous boundary's scaling actions left behind — the dynamic
        # broker assigns this window (and samples its network draws) here,
        # between slot-sized Lindley passes.
        i0, i1 = run_slot_brokering(
            slot_broker,
            plan=plan,
            federation=federation,
            start_ms=start,
            end_ms=end,
            group_of_user=group_of_user,
            telemetry=telemetry,
            slot_index=period - 1,
            fault_plane=fault_plane,
        )
        with telemetry.span("slot.serve", slot=period - 1):
            count = int(i1 - i0)
            uids = plan.user_ids[i0:i1]
            # Snapshot the promotion levels the broker routed by, before this
            # slot's deliveries mutate them: the per-group site tallies must
            # reflect the groups as requested, in both execution modes.
            window_user_groups = group_of_user[uids]
            t1 = plan.t1_ms[i0:i1]
            t2 = plan.t2_ms[i0:i1]
            routing = plan.routing_ms[i0:i1]
            # Uplink/downlink derive from T1/T2, which the dynamic broker only
            # fills at this slot's boundary — compute them per window, not from
            # the whole-plan properties.
            half_hops = (t1 + t2) / 2.0
            dispatch = arrival[i0:i1] + half_hops + routing
            dlink = half_hops
            work = plan.work_units[i0:i1]
            jitter = plan.jitter_z[i0:i1]
            window_sites = site_ids[i0:i1]

            # Excluded fault positions keep delivered = inf, so every
            # recorded-based tally below skips them for free.
            delivered = np.full(count, np.inf)
            cloud = np.zeros(count)
            ok = np.ones(count, dtype=bool)
            routed_groups = np.zeros(count, dtype=np.int64)

            # Broker drops (no available site) fail back instantly at arrival.
            lost = np.flatnonzero(window_sites == UNROUTED)
            ok[lost] = False
            delivered[lost] = arrival[i0:i1][lost]
            unrouted_total += int(lost.size)

            for site in federation:
                site_mask = window_sites == site.index
                if fault_outcome is not None:
                    # Degraded-local / fault-dropped requests never dispatch
                    # (the event path skips their submission identically).
                    site_mask &= fault_outcome[i0:i1] == OUTCOME_OK
                select = np.flatnonzero(site_mask)
                if select.size == 0:
                    continue
                levels = site.backend.levels
                if not levels:
                    raise ValueError(f"site {site.name!r} back-end pool is empty")
                if round_robin:
                    routed = np.asarray(levels, dtype=np.int64)[
                        (rr_cursors[site.index] + np.arange(select.size)) % len(levels)
                    ]
                    rr_cursors[site.index] += select.size
                else:
                    routed = clamp_table(levels, highest_group)[
                        group_of_user[uids[select]]
                    ]
                routed_groups[select] = routed
                serve_slot_requests(
                    backend=site.backend,
                    state_for=state_fors[site.index],
                    select=select,
                    routed=routed,
                    dispatch=dispatch,
                    work=work,
                    jitter=jitter,
                    downlink=dlink,
                    delivered=delivered,
                    cloud=cloud,
                    ok=ok,
                    slot_start_ms=start,
                )
            response = t1 + t2 + routing + cloud

            recorded = delivered <= horizon
            requests_total += int(np.count_nonzero(recorded))
            failed = recorded & ~ok
            dropped_total += int(np.count_nonzero(failed))
            succeeded = recorded & ok
            success_chunks.append(response[succeeded])

            for site in federation:
                mask = recorded & (window_sites == site.index)
                stats = per_site[site.index]
                stats.requests_total += int(np.count_nonzero(mask))
                stats.requests_dropped += int(np.count_nonzero(mask & ~ok))
                stats.success_chunks.append(response[mask & succeeded])
                stats.tally_groups(window_user_groups[mask], ~ok[mask])

            while (
                sample_cursor < len(sample_times)
                and sample_times[sample_cursor] < end
            ):
                append_utilization(sample_times[sample_cursor])
                sample_cursor += 1

            fold_slot_devices(
                devices, moderators, group_of_user, uids, response, delivered,
                failed, succeeded,
            )

        # --- per-site control planes at the slot boundary -------------------
        with telemetry.span("slot.control", slot=period - 1):
            engine.clock.advance_to(end)
            observed = recorded & (delivered < end)
            for site in federation:
                site.autoscaler.run_slot(
                    routed_groups, uids, observed & (window_sites == site.index), end
                )
                # Same boundary instant the event executor samples this site.
                telemetry.recorder.sample_fleet(
                    period - 1, site.provisioner, prefix=site.metric_prefix
                )

    # A trailing sample can land exactly on the run horizon, after the final
    # scaling action — same ordering as the event loop's FIFO tie-break.
    with telemetry.span("slot.drain"):
        while sample_cursor < len(sample_times):
            append_utilization(sample_times[sample_cursor])
            sample_cursor += 1

        engine.clock.advance_to(horizon)
        responses = (
            np.concatenate(success_chunks) if success_chunks else np.empty(0, dtype=float)
        )
    return FederationMetrics(
        requests_total=requests_total,
        requests_dropped=dropped_total,
        requests_unrouted=unrouted_total,
        success_response_ms=responses,
        utilization_samples=utilization_samples,
        per_site=per_site,
    )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def run_multisite_scenario(
    spec: ScenarioSpec,
    *,
    seed: "int | None" = None,
    telemetry=None,
) -> ScenarioResult:
    """Execute one scenario with a ``sites:`` section (both execution modes).

    Same contract as :func:`repro.scenarios.runner.run_scenario`, which
    calls this for such specs: ``seed`` overrides ``spec.seed`` (seed 0 when
    neither is given), and ``telemetry`` is an optional collaborator
    resolved against ``spec.telemetry`` that observes but never changes the
    run (per-site signals additionally roll up through
    :func:`repro.analysis.metrics.federation_rollup` into the registry).
    """
    if spec.sites is None:
        raise ValueError(f"scenario {spec.name!r} declares no sites")
    return _run_multisite(spec, seed, telemetry)


@dataclass
class MultisiteRun:
    """The state one executed run leaves behind, before the result fold."""

    seed: int
    engine: SimulationEngine
    federation: Federation
    slot_broker: object
    devices: Dict[int, MobileDevice]
    plan: RequestPlan
    fault_plane: "MultisiteFaultPlane | None"
    metrics: FederationMetrics


def _run_multisite(spec: ScenarioSpec, seed: "int | None", telemetry) -> ScenarioResult:
    """Set up, execute and fold one run of ``spec`` over its N >= 1 sites."""
    telemetry = resolve_telemetry(telemetry, spec.telemetry)
    with telemetry.span("scenario.run"):
        run = execute_multisite(spec, seed, telemetry)
        # --- federation-wide + per-site metrics ------------------------------
        with telemetry.span("stats.fold"):
            return _fold_multisite_result(spec, run, telemetry)


def execute_multisite(spec: ScenarioSpec, seed: "int | None", telemetry) -> MultisiteRun:
    """Set up and execute one run of ``spec`` over its N >= 1 sites.

    The one place the seed resolves: the argument, then ``spec.seed``,
    then 0.  ``telemetry`` must already be resolved.
    """
    seed = seed if seed is not None else (spec.seed if spec.seed is not None else 0)
    with telemetry.span("scenario.setup"):
        streams = RandomStreams(seed)
        engine = SimulationEngine()
        rng_workload = streams.stream("scenario-workload")
        rng_devices = streams.stream("scenario-devices")
        rng_routing = streams.stream("scenario-sdn")

        task = DEFAULT_TASK_POOL.get(spec.task_name)
        duration_ms = spec.duration_ms
        slot_ms = spec.slot_length_ms

        federation = build_federation(
            scenario=spec,
            engine=engine,
            streams=streams,
            task=task,
        )
        sites_spec = federation.spec

    # --- workload + brokering --------------------------------------------
    with telemetry.span("plan.generate"):
        arrival_process = build_arrival_process(spec.workload, duration_ms)
        plan = build_request_plan(
            arrival_process=arrival_process,
            task=task,
            users=spec.users,
            duration_ms=duration_ms,
            rng_workload=rng_workload,
            rng_routing=rng_routing,
            rng_jitter=streams.stream("scenario-jitter"),
        )

    with telemetry.span("scenario.setup"):
        if sites_spec.policy == "dynamic-load":
            # Brokering (and per-site network sampling) happens inside the
            # slot loop: the executors call run_slot_brokering at every
            # boundary.
            slot_broker = DynamicBroker(
                plan=plan,
                users=spec.users,
                federation=sites_spec,
                duration_ms=duration_ms,
                access_rtt_ms=federation.mean_access_rtt_ms(),
            )
        else:
            brokered = broker_assign(
                arrival_ms=plan.arrival_ms,
                user_ids=plan.user_ids,
                users=spec.users,
                federation=sites_spec,
                duration_ms=duration_ms,
                access_rtt_ms=federation.mean_access_rtt_ms(),
            )
            plan = sample_network_for_sites(
                plan=plan, brokered=brokered, federation=federation
            )
            slot_broker = StaticSlotBroker(
                plan=plan, brokered=brokered, site_count=len(federation)
            )

        # --- devices (homed per site, shared moderators) -----------------
        profile_names = sorted(spec.devices.weights)
        raw_weights = np.asarray(
            [spec.devices.weights[name] for name in profile_names], dtype=float
        )
        probabilities = raw_weights / raw_weights.sum()
        promotion_policy = _build_promotion_policy(spec)
        max_group = federation.highest_group()
        devices: Dict[int, MobileDevice] = {}
        moderators: Dict[int, Moderator] = {}
        for user_id in range(spec.users):
            chosen = profile_names[
                int(rng_devices.choice(len(profile_names), p=probabilities))
            ]
            home = federation.site(int(slot_broker.home_site_of_user[user_id]))
            devices[user_id] = MobileDevice(
                user_id=user_id,
                profile=DEVICE_PROFILES[chosen],
                acceleration_group=home.lowest_group(),
            )
            moderators[user_id] = Moderator(
                promotion_policy,
                max_group=max_group,
                rng=streams.stream(f"scenario-moderator-{user_id}"),
            )

        # --- fault plane: pre-computed verdicts + slot-boundary steps ----
        fault_plane = None
        if spec.faults is not None:
            overlay = build_fault_overlay(
                plan=plan,
                faults=spec.faults,
                duration_ms=duration_ms,
                rng=streams.stream(FAULT_STREAM),
                # Static brokering fixed the site of every request at plan
                # time, which is what scopes site-named preemption
                # windows; the dynamic broker assigns per slot, so only
                # global fault processes apply to its draws.
                site_ids=(
                    None if slot_broker.is_dynamic else slot_broker.site_ids
                ),
                site_names=sites_spec.site_names,
            )
            overlay.set_local_execution(
                plan,
                np.asarray(
                    [
                        devices[user_id].profile.local_speed_factor
                        for user_id in range(spec.users)
                    ],
                    dtype=float,
                ),
            )
            overlay.apply_latency(plan)
            if not slot_broker.samples_network:
                # Static brokering sampled T1/T2 at plan time; the dynamic
                # broker samples per slot, so the factor is applied inside
                # run_slot_brokering right after each window's sampling.
                overlay.apply_network_factor(plan)
            fault_plane = MultisiteFaultPlane(
                overlay=overlay,
                federation_spec=sites_spec,
                duration_ms=duration_ms,
                access_rtt_ms=federation.mean_access_rtt_ms(),
                home_site_of_user=slot_broker.home_site_of_user,
                control_rng=(
                    streams.stream(FAULT_CONTROL_STREAM)
                    if spec.faults.control_plane is not None
                    else None
                ),
            )

    if spec.execution == "batched" and federation.implicit:
        # Single-site batched runs keep their own data plane: it rounds
        # dispatch times differently from execute_batched_multisite, so
        # merging the two would move results.
        site = federation.site(0)
        single = execute_batched(
            spec=spec,
            plan=plan,
            engine=engine,
            devices=devices,
            moderators=moderators,
            backend=site.backend,
            autoscaler=site.autoscaler,
            round_robin_routing=spec.policy.routing == "round-robin",
            duration_ms=duration_ms,
            slot_ms=slot_ms,
            telemetry=telemetry,
            overlay=None if fault_plane is None else fault_plane.overlay,
        )
        # The implicit site reports no per-site breakdown.
        metrics = FederationMetrics(
            requests_total=single.requests_total,
            requests_dropped=single.requests_dropped,
            requests_unrouted=0,
            success_response_ms=single.success_response_ms,
            utilization_samples=single.utilization_samples,
            per_site=[],
        )
    elif spec.execution == "batched":
        metrics = execute_batched_multisite(
            spec=spec,
            plan=plan,
            slot_broker=slot_broker,
            engine=engine,
            federation=federation,
            devices=devices,
            moderators=moderators,
            duration_ms=duration_ms,
            slot_ms=slot_ms,
            telemetry=telemetry,
            fault_plane=fault_plane,
        )
    else:
        metrics = execute_event_multisite(
            spec=spec,
            plan=plan,
            slot_broker=slot_broker,
            engine=engine,
            federation=federation,
            devices=devices,
            moderators=moderators,
            duration_ms=duration_ms,
            slot_ms=slot_ms,
            telemetry=telemetry,
            fault_plane=fault_plane,
        )

    return MultisiteRun(
        seed=seed,
        engine=engine,
        federation=federation,
        slot_broker=slot_broker,
        devices=devices,
        plan=plan,
        fault_plane=fault_plane,
        metrics=metrics,
    )


def _fold_multisite_result(
    spec: ScenarioSpec, run: MultisiteRun, telemetry
) -> ScenarioResult:
    """Fold the executor outputs into one :class:`ScenarioResult`.

    The implicit site of a single-site spec is reported as a single-site
    run: no ``sites``, no ``slot_site_requests``, unprefixed serving-stack
    metrics and no ``site.*``, ``federation.*`` or ``broker.*`` signals.
    """
    federation, slot_broker, devices = run.federation, run.slot_broker, run.devices
    metrics, plan, fault_plane = run.metrics, run.plan, run.fault_plane
    successes = metrics.success_response_ms
    requests_total = metrics.requests_total
    dropped_total = metrics.requests_dropped
    fault_summary = None
    overlay = fault_plane.overlay if fault_plane is not None else None
    if overlay is not None:
        # Degraded/dropped requests never reached an executor; they enter the
        # tallies here, identically for both execution modes.  Broker-unrouted
        # requests keep their historical semantics (dropped at the broker, not
        # rescued by local fallback) via the site_ids filter.
        fault_summary = overlay.fault_summary(
            spec.users, plan, site_ids=slot_broker.site_ids
        )
        requests_total += (
            fault_summary.requests_local + fault_summary.requests_dropped
        )
        dropped_total += fault_summary.requests_dropped
        if fault_summary.local_response_ms.size:
            successes = np.concatenate(
                [successes, fault_summary.local_response_ms]
            )
        for user_id in np.flatnonzero(fault_summary.dropped_user_counts):
            devices[int(user_id)].record_failures(
                int(fault_summary.dropped_user_counts[user_id])
            )
    if successes.size:
        mean_ms = float(successes.mean())
        p50, p95, p99 = linear_percentiles(successes, (50.0, 95.0, 99.0))
    else:
        mean_ms = p50 = p95 = p99 = float("nan")

    accuracies: List[float] = []
    for site in federation:
        accuracies.extend(prediction_accuracy_samples(site.autoscaler, site.model))
    predictions_total = sum(
        1
        for site in federation
        for action in site.autoscaler.actions
        if action.decision is not None
    )
    site_results = (
        []
        if federation.implicit
        else _site_results(federation, slot_broker, metrics, overlay)
    )

    if telemetry.enabled:
        registry = telemetry.registry
        publish_engine(registry, run.engine)
        publish_requests(
            registry,
            total=requests_total,
            dropped=dropped_total,
            success_response_ms=successes,
        )
        publish_devices(registry, devices.values())
        if fault_summary is not None:
            publish_faults(
                registry,
                summary=fault_summary,
                outage_kills=fault_plane.outage_kills,
                snapshots_lost=fault_plane.snapshots_lost,
            )
        for site in federation:
            publish_serving_stack(
                registry,
                provisioner=site.provisioner,
                autoscaler=site.autoscaler,
                prefix=site.metric_prefix,
            )
        recorder = telemetry.recorder
        recorder.ingest_plan(plan, slot_ms=spec.slot_length_ms, periods=spec.periods)
        if not federation.implicit:
            publish_federation(registry, site_results)
            publish_broker(
                registry, unrouted=metrics.requests_unrouted, broker=slot_broker
            )
            recorder.ingest_broker(slot_broker, [site.name for site in federation])
        if overlay is not None:
            recorder.ingest_faults(
                overlay,
                plan,
                slot_ms=spec.slot_length_ms,
                periods=spec.periods,
                site_ids=slot_broker.site_ids,
            )

    return ScenarioResult(
        name=spec.name,
        seed=run.seed,
        users=spec.users,
        duration_hours=spec.duration_hours,
        requests_total=requests_total,
        requests_succeeded=int(successes.size),
        requests_dropped=dropped_total,
        mean_response_ms=mean_ms,
        p50_response_ms=p50,
        p95_response_ms=p95,
        p99_response_ms=p99,
        prediction_accuracy=(
            float(np.mean(accuracies)) if accuracies else float("nan")
        ),
        predictions=predictions_total,
        scaling_actions=federation.total_scaling_actions(),
        allocation_cost_usd=federation.total_cost(),
        mean_utilization=(
            float(np.mean(metrics.utilization_samples))
            if metrics.utilization_samples
            else 0.0
        ),
        promoted_users=sum(1 for device in devices.values() if device.promotions),
        promotions=sum(len(device.promotions) for device in devices.values()),
        requests_unrouted=metrics.requests_unrouted,
        requests_spilled=int(slot_broker.requests_spilled),
        requests_retried=(
            fault_summary.requests_retried if fault_summary is not None else 0
        ),
        requests_failed_over=(
            fault_summary.requests_failed_over if fault_summary is not None else 0
        ),
        requests_degraded_local=(
            fault_summary.requests_local if fault_summary is not None else 0
        ),
        slot_site_requests=(
            ()
            if federation.implicit
            else tuple(
                tuple(int(count) for count in row)
                for row in slot_broker.slot_site_requests
            )
        ),
        sites=tuple(site_results),
    )


def _site_results(
    federation: Federation,
    slot_broker,
    metrics: FederationMetrics,
    overlay,
) -> List[SiteResult]:
    """One :class:`SiteResult` per declared site, in declaration order."""
    site_count = len(federation)
    spilled_mask = slot_broker.spilled
    spilled_in = (
        np.bincount(slot_broker.site_ids[spilled_mask], minlength=site_count)
        if np.any(spilled_mask)
        else np.zeros(site_count, dtype=np.int64)
    )

    # Per-site fault/resilience attribution: retried counts land on the site
    # that finally served the request, failovers on the destination site, and
    # degraded-local requests on the site they were last assigned to.
    zeros = np.zeros(site_count, dtype=np.int64)
    site_retried = site_failed_over = site_local = zeros
    if overlay is not None:
        sids = slot_broker.site_ids
        routed_mask = sids >= 0
        site_retried = np.bincount(
            sids[routed_mask & (overlay.attempts > 1)], minlength=site_count
        )
        site_failed_over = np.bincount(
            sids[routed_mask & overlay.rerouted], minlength=site_count
        )
        site_local = np.bincount(
            sids[routed_mask & (overlay.outcome == OUTCOME_DEGRADED_LOCAL)],
            minlength=site_count,
        )

    site_results: List[SiteResult] = []
    for site in federation:
        stats = metrics.per_site[site.index]
        site_successes = stats.success_response_ms
        site_results.append(
            SiteResult(
                name=site.name,
                requests_total=stats.requests_total,
                requests_dropped=stats.requests_dropped,
                mean_response_ms=(
                    float(site_successes.mean()) if site_successes.size else float("nan")
                ),
                p95_response_ms=(
                    linear_percentiles(site_successes, (95.0,))[0]
                    if site_successes.size
                    else float("nan")
                ),
                allocation_cost_usd=site.total_cost(),
                scaling_actions=len(site.autoscaler.actions),
                predictions=sum(
                    1
                    for action in site.autoscaler.actions
                    if action.decision is not None
                ),
                mean_utilization=(
                    float(np.mean(site.utilization_samples))
                    if site.utilization_samples
                    else 0.0
                ),
                requests_spilled_in=int(spilled_in[site.index]),
                requests_retried=int(site_retried[site.index]),
                requests_failed_over=int(site_failed_over[site.index]),
                requests_degraded_local=int(site_local[site.index]),
                groups=tuple(
                    SiteGroupResult(
                        group=group,
                        requests_total=stats.group_requests.get(group, 0),
                        requests_dropped=stats.group_dropped.get(group, 0),
                    )
                    for group in sorted(stats.group_requests)
                ),
            )
        )
    return site_results
