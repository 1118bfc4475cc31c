"""Batched (vectorised) execution of a scenario's data plane.

The event executor spends its time in per-request Python: one engine event
per hop, one scalar RNG draw per sample, one callback per completion.  The
batched executor replaces that data plane with per-slot numpy array
computation while leaving the *control plane* untouched: prediction,
allocation, autoscaling and utilisation sampling still happen at exactly the
same provisioning-slot boundaries, against slots built from the same
(request, user, group) information, on the same fleet objects.

Both executors consume the same pre-drawn :class:`~repro.scenarios.plan.RequestPlan`,
so they see identical arrivals, work requirements, RTTs, routing overheads
and service jitter.  What the batched mode approximates is *queueing
dynamics only*:

* **Service discipline** — each instance serves requests FCFS per core
  (round-robin core assignment in dispatch order, completion times via a
  vectorised Lindley recursion) instead of egalitarian processor sharing.
  Under light load (no overlap) the two are exactly identical; under
  saturation they produce the same throughput with different in-system
  orderings.
* **Instance selection** — requests are spread round-robin over a group's
  instances instead of least-loaded-first (identical when a group has one
  instance).
* **Admission control** — a drop-free one-pass estimate detects whether the
  concurrency limit is reached at all; if it is, admission is redone exactly
  (:func:`sequential_admission`): each request is admitted iff the true
  in-flight population at its dispatch instant is below the limit.  Under
  deep overload both paths then settle at the same loss rate; residual drop
  differences (typically under one percentage point, pinned by the
  saturation parity test) come from the FCFS-vs-processor-sharing service
  orderings, not from the admission model.
* **Promotions** — promotion decisions consume the same per-user random
  streams but take routing effect at the next slot boundary rather than
  mid-slot, and the battery drains once per slot rather than per request.

For a deterministic configuration (fixed-rate arrivals, constant-latency
network, light load, promotion probability 0) the batched and event paths
produce **identical metrics**; the parity test suite pins this exactly and
bounds the stochastic cases with tolerances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cloud.backend import BackendPool
from repro.cloud.server import CloudInstance, jittered_work_units
from repro.faults.overlay import OUTCOME_OK
from repro.mobile.device import MobileDevice
from repro.mobile.moderator import Moderator
from repro.scenarios.plan import RequestPlan
from repro.scenarios.spec import ScenarioSpec
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.engine import SimulationEngine
from repro.telemetry import NULL_TELEMETRY

#: Post-run drain margin for in-flight requests (mirrors the event executor).
DRAIN_MARGIN_MS = 60_000.0


@dataclass
class ExecutionMetrics:
    """Data-plane outputs shared by the event and batched executors."""

    requests_total: int
    requests_dropped: int
    #: One slot per request; the first ``requests_succeeded`` are filled.
    success_buffer: np.ndarray
    requests_succeeded: int
    utilization_samples: List[float]


@dataclass
class InstanceState:
    """Vectorised FCFS bookkeeping for one cloud instance.

    Shared with the multi-site executor (:mod:`repro.multisite.runner`),
    which keeps one state table per site.

    Admitted dispatch/completion times are split into a pruned "settled"
    counter (events at or before a slot boundary that every future query time
    has already passed) and a small sorted pending array kept incrementally,
    so per-slot admission and per-sample utilisation cost scale with the
    in-flight population rather than the whole run's history.
    """

    instance: CloudInstance
    core_free_ms: np.ndarray
    admitted: int = 0
    settled_dispatches: int = 0
    settled_completions: int = 0
    pending_dispatches: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=float)
    )
    pending_completions: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=float)
    )

    @classmethod
    def for_instance(cls, instance: CloudInstance) -> "InstanceState":
        """Fresh state with one Lindley lane per service lane of the instance.

        Lane counts come from :attr:`PerformanceProfile.service_lanes` — the
        same rounding the event executor's processor-sharing server applies —
        so both executors agree on the discrete service structure.
        """
        lanes = instance.instance_type.profile.service_lanes
        return cls(instance=instance, core_free_ms=np.zeros(lanes))

    @staticmethod
    def _merge(into: np.ndarray, fresh_sorted: np.ndarray) -> np.ndarray:
        positions = np.searchsorted(into, fresh_sorted)
        return np.insert(into, positions, fresh_sorted)

    def note_admitted(
        self, dispatch_sorted: np.ndarray, completions: np.ndarray
    ) -> None:
        """Merge a slot's admitted dispatches/completions into the sorted state."""
        self.admitted += int(dispatch_sorted.size)
        self.pending_dispatches = self._merge(self.pending_dispatches, dispatch_sorted)
        self.pending_completions = self._merge(
            self.pending_completions, np.sort(completions)
        )

    def prune(self, below_ms: float) -> None:
        """Fold events at or before ``below_ms`` into the settled counters.

        Safe once every future query instant (dispatch or sample time) is
        known to be at least ``below_ms`` — i.e. at a slot boundary.
        """
        keep = int(np.searchsorted(self.pending_dispatches, below_ms, side="right"))
        if keep:
            self.settled_dispatches += keep
            self.pending_dispatches = self.pending_dispatches[keep:]
        keep = int(np.searchsorted(self.pending_completions, below_ms, side="right"))
        if keep:
            self.settled_completions += keep
            self.pending_completions = self.pending_completions[keep:]

    def in_flight_before(self, dispatch_sorted: np.ndarray) -> np.ndarray:
        """Still-in-flight prior admissions at each dispatch instant."""
        done = self.settled_completions + np.searchsorted(
            self.pending_completions, dispatch_sorted, side="right"
        )
        return self.admitted - done

    def in_service_at(self, t_ms: float) -> int:
        """Admitted-but-not-completed count at time ``t_ms`` (>= last prune)."""
        started = self.settled_dispatches + int(
            np.searchsorted(self.pending_dispatches, t_ms, side="right")
        )
        finished = self.settled_completions + int(
            np.searchsorted(self.pending_completions, t_ms, side="right")
        )
        return started - finished


def fcfs_completions(
    dispatch_sorted: np.ndarray, service_sorted: np.ndarray, core_free_ms: np.ndarray
) -> np.ndarray:
    """Completion times under FCFS with round-robin core assignment.

    Per core the completion recurrence ``C_i = max(A_i, C_{i-1}) + s_i`` is
    evaluated in closed vectorised form: with ``S_i`` the running service sum,
    ``C_i - S_i`` is a running maximum of ``A_i - S_{i-1}`` seeded by the
    core's previous free time.  ``core_free_ms`` is advanced in place.
    """
    completions = np.empty_like(dispatch_sorted)
    cores = core_free_ms.size
    for core in range(cores):
        picks = slice(core, None, cores)
        arrivals = dispatch_sorted[picks]
        if arrivals.size == 0:
            continue
        services = service_sorted[picks]
        running = np.cumsum(services)
        previous = running - services
        backlog = np.maximum.accumulate(
            np.concatenate(([core_free_ms[core]], arrivals - previous))
        )[1:]
        finished = backlog + running
        completions[picks] = finished
        core_free_ms[core] = finished[-1]
    return completions


def clamp_table(levels: List[int], highest_group: int) -> np.ndarray:
    """``BackendPool.clamp_level`` precomputed for every possible group id."""
    table = np.empty(highest_group + 1, dtype=np.int64)
    for group in range(highest_group + 1):
        if group in levels:
            table[group] = group
        else:
            higher = [level for level in levels if level > group]
            table[group] = higher[0] if higher else levels[-1]
    return table


def sequential_admission(
    d_sorted: np.ndarray,
    s_sorted: np.ndarray,
    inflight_prior: np.ndarray,
    admission_limit: int,
    core_free_ms: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Exact FCFS admission under a concurrency limit, in dispatch order.

    The vectorised one-pass estimate computes in-flight counts from the
    all-admitted schedule, which wildly over-drops under deep overload (the
    estimated backlog keeps growing even though real drops would have kept it
    at the limit).  This sequential pass is the exact fixpoint: each request
    is admitted iff the *true* in-flight population (previous slots' still
    running admissions plus this batch's admitted-but-unfinished ones) is
    below the limit at its dispatch instant.  Admitted requests take cores
    round-robin in admission order — identical to :func:`fcfs_completions`
    over the admitted subsequence — so drop-free batches are unaffected.

    Only invoked when the one-pass estimate detects any drop, so the scalar
    loop never runs on the (common) unsaturated path.  Returns
    ``(admitted_mask, completion_ms)``; dropped entries complete at dispatch.
    ``core_free_ms`` is advanced in place.
    """
    completions = np.empty_like(d_sorted)
    admitted = np.zeros(d_sorted.size, dtype=bool)
    in_flight: List[float] = []  # completion times of this batch's admissions
    cores = core_free_ms.size
    core_cursor = 0
    for index in range(d_sorted.size):
        dispatch = d_sorted[index]
        while in_flight and in_flight[0] <= dispatch:
            heapq.heappop(in_flight)
        if inflight_prior[index] + len(in_flight) >= admission_limit:
            completions[index] = dispatch  # dropped: reported at dispatch
            continue
        core = core_cursor % cores
        core_cursor += 1
        finish = max(core_free_ms[core], dispatch) + s_sorted[index]
        core_free_ms[core] = finish
        completions[index] = finish
        admitted[index] = True
        heapq.heappush(in_flight, finish)
    return admitted, completions


def serve_slot_requests(
    *,
    backend: BackendPool,
    state_for,
    select: np.ndarray,
    routed: np.ndarray,
    dispatch: np.ndarray,
    work: np.ndarray,
    jitter: np.ndarray,
    downlink: np.ndarray,
    delivered: np.ndarray,
    cloud: np.ndarray,
    ok: np.ndarray,
    slot_start_ms: float,
) -> None:
    """Serve one slot's requests on one back-end pool, vectorised per instance.

    ``select`` holds the slot-window positions served by this pool (the whole
    window for a single-site run, one site's partition for a federation) and
    ``routed`` the acceleration group of each selected request.  ``dispatch``/
    ``work``/``jitter``/``downlink`` are full-window inputs; ``delivered``/
    ``cloud``/``ok`` are full-window outputs written at the selected positions.
    Requests are spread round-robin over each group's instances; completions
    come from the per-core Lindley recursion, falling back to the exact
    sequential admission pass when the drop-free estimate hits the limit.
    """
    for group in groups_present(routed):
        group_picks = select[np.flatnonzero(routed == group)]
        instances = backend.instances_for_level(group)
        fleet = len(instances)
        for position, instance in enumerate(instances):
            sub = group_picks[position::fleet]
            if sub.size == 0:
                continue
            state = state_for(instance)
            state.prune(slot_start_ms)
            profile = instance.instance_type.profile
            effective = jittered_work_units(
                work[sub], jitter[sub], profile.jitter_fraction
            )
            service = effective / profile.speed_factor
            order = np.argsort(dispatch[sub], kind="stable")
            sub_sorted = sub[order]
            d_sorted = dispatch[sub_sorted]
            s_sorted = service[order]
            free_snapshot = state.core_free_ms.copy()
            completions = fcfs_completions(d_sorted, s_sorted, state.core_free_ms)
            # Admission: concurrency at each dispatch = still-in-flight
            # earlier admissions (previous slots + earlier in this batch).
            inflight_prior = state.in_flight_before(d_sorted)
            own_done = np.searchsorted(np.sort(completions), d_sorted, side="right")
            concurrency = inflight_prior + np.arange(d_sorted.size) - own_done
            drops = concurrency >= instance.admission_limit
            if np.any(drops):
                # The drop-free schedule hit the limit: redo admission exactly,
                # in dispatch order, against the true in-flight population.
                state.core_free_ms[:] = free_snapshot
                admitted, completions = sequential_admission(
                    d_sorted,
                    s_sorted,
                    inflight_prior,
                    instance.admission_limit,
                    state.core_free_ms,
                )
                drops = ~admitted
            admitted = ~drops
            winners = sub_sorted[admitted]
            sojourn = completions[admitted] - d_sorted[admitted]
            cloud[winners] = sojourn + profile.base_overhead_ms
            delivered[winners] = completions[admitted] + downlink[winners]
            losers = sub_sorted[drops]
            ok[losers] = False
            # A dropped request is reported back immediately at dispatch.
            delivered[losers] = d_sorted[drops]
            state.note_admitted(d_sorted[admitted], completions[admitted])
            admitted_count = int(admitted.sum())
            instance.accepted_requests += admitted_count
            instance.completed_requests += admitted_count
            instance.dropped_requests += int(drops.sum())


def groups_present(groups: np.ndarray) -> List[int]:
    """The distinct values of a non-negative int array, ascending, as ints.

    ``np.unique`` would import ``numpy.ma`` on its first call in a process.
    """
    return np.flatnonzero(np.bincount(groups)).tolist()


def append_successes(
    successes: np.ndarray, filled: int, response: np.ndarray, succeeded: np.ndarray
) -> int:
    """Copy a window's successful responses into ``successes`` after ``filled``.

    ``successes`` is the run's one preallocated buffer (a request succeeds at
    most once); returns the new fill level.
    """
    count = int(np.count_nonzero(succeeded))
    np.compress(succeeded, response, out=successes[filled : filled + count])
    return filled + count


def fold_slot_devices(
    devices, moderators, group_of_user, uids, response, delivered, failed, succeeded
) -> None:
    """Fold a slot window's outcomes into its users' devices.

    Each device counts its sent requests and its recorded failures.  Then
    each user's moderator sees the user's successful responses in delivery
    order (ties keep window order: ``lexsort`` is stable), one
    ``observe_many`` call per user in ascending user order, and
    ``group_of_user`` takes each observed device's group, promotions included.
    """
    sent = np.bincount(uids)
    for user in np.flatnonzero(sent).tolist():
        devices[user].requests_sent += int(sent[user])
    failures = np.bincount(uids[failed])
    for user in np.flatnonzero(failures).tolist():
        devices[user].record_failures(int(failures[user]))
    if not np.any(succeeded):
        return
    users, delivered = uids[succeeded], delivered[succeeded]
    order = np.lexsort((delivered, users))
    users, delivered = users[order], delivered[order]
    response = response[succeeded][order]
    bounds = (np.flatnonzero(users[1:] != users[:-1]) + 1).tolist()
    for lo, hi in zip([0] + bounds, bounds + [users.size]):
        user = int(users[lo])
        device = devices[user]
        moderators[user].observe_many(device, response[lo:hi], delivered[lo:hi])
        group_of_user[user] = device.acceleration_group


def execute_batched(
    *,
    spec: ScenarioSpec,
    plan: RequestPlan,
    engine: SimulationEngine,
    devices: Dict[int, MobileDevice],
    moderators: Dict[int, Moderator],
    backend: BackendPool,
    autoscaler: Autoscaler,
    round_robin_routing: bool,
    duration_ms: float,
    slot_ms: float,
    telemetry=NULL_TELEMETRY,
    overlay=None,
) -> ExecutionMetrics:
    """Run the scenario's data plane slot by slot as numpy array computation.

    ``overlay`` (a :class:`~repro.faults.overlay.FaultOverlay`, when faults
    are enabled) masks degraded/dropped requests out of the Lindley pass:
    they still count as sent (mirroring the event path, where the device
    counter increments before the fault check) but never dispatch, never
    occupy a core, and are tallied at fold time from the overlay.
    """
    horizon = duration_ms + DRAIN_MARGIN_MS
    group_of_user = np.asarray(
        [devices[user].acceleration_group for user in range(spec.users)], dtype=np.int64
    )
    highest_group = max(
        int(group_of_user.max(initial=0)),
        max(spec.cloud.group_types),
    )
    states: Dict[str, InstanceState] = {}

    def state_for(instance: CloudInstance) -> InstanceState:
        state = states.get(instance.instance_id)
        if state is None:
            state = InstanceState.for_instance(instance)
            states[instance.instance_id] = state
        return state

    def append_utilization(t_ms: float) -> None:
        # Mirrors the event executor's sampler: core occupancy over the
        # currently running fleet, in-service capped at each instance's cores.
        busy = 0.0
        cores_total = 0.0
        for instances in backend.groups.values():
            for instance in instances:
                if not instance.is_running:
                    continue
                instance_cores = instance.instance_type.profile.fluid_cores
                state = states.get(instance.instance_id)
                in_service = float(state.in_service_at(t_ms)) if state else 0.0
                busy += min(in_service, instance_cores)
                cores_total += instance_cores
        if cores_total > 0:
            utilization_samples.append(busy / cores_total)

    sample_interval_ms = max(slot_ms / 10.0, 30_000.0)
    sample_times = [0.0]
    while sample_times[-1] + sample_interval_ms <= duration_ms:
        sample_times.append(sample_times[-1] + sample_interval_ms)
    sample_cursor = 0
    utilization_samples: List[float] = []

    arrival = plan.arrival_ms

    requests_total = 0
    dropped_total = 0
    successes = np.empty(len(plan))
    succeeded_total = 0
    rr_cursor = 0

    for period in range(1, spec.periods + 1):
        start = (period - 1) * slot_ms
        end = min(period * slot_ms, duration_ms)
        with telemetry.span("slot.serve", slot=period - 1):
            i0, i1 = np.searchsorted(arrival, [start, end], side="left")
            count = int(i1 - i0)
            uids = plan.user_ids[i0:i1]
            t1 = plan.t1_ms[i0:i1]
            t2 = plan.t2_ms[i0:i1]
            routing = plan.routing_ms[i0:i1]
            # Uplink is half of both hops plus routing, added to the arrival
            # in the event path's association.
            dlink = (t1 + t2) / 2.0
            dispatch = arrival[i0:i1] + (dlink + routing)
            work = plan.work_units[i0:i1]
            jitter = plan.jitter_z[i0:i1]

            levels = backend.levels
            if not levels:
                raise ValueError("back-end pool is empty")

            # Positions that actually offload this slot: everything without a
            # fault plane, only OUTCOME_OK requests with one.  Excluded
            # positions keep delivered = inf, so every recorded-based tally
            # below skips them for free.
            if overlay is None:
                select = np.arange(count)
            else:
                select = np.flatnonzero(overlay.outcome[i0:i1] == OUTCOME_OK)
            delivered = np.full(count, np.inf)
            cloud = np.zeros(count)
            ok = np.ones(count, dtype=bool)
            routed = np.zeros(count, dtype=np.int64)
            if round_robin_routing:
                # The cursor advances only over offloading requests — exactly
                # the submissions that reach the router in event mode.
                routed[select] = np.asarray(levels, dtype=np.int64)[
                    (rr_cursor + np.arange(select.size)) % len(levels)
                ]
                rr_cursor += select.size
            else:
                routed[select] = clamp_table(levels, highest_group)[
                    group_of_user[uids[select]]
                ]

            serve_slot_requests(
                backend=backend,
                state_for=state_for,
                select=select,
                routed=routed[select],
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
            succeeded_total = append_successes(
                successes, succeeded_total, response, succeeded
            )

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

        # --- control plane at the slot boundary (same slot the event path
        # --- observes: requests that arrived in the window AND completed
        # --- strictly before the boundary are delivered when the scaler
        # --- runs; at an exact tie the scale event wins the FIFO tie-break
        # --- because it was scheduled at setup time).
        with telemetry.span("slot.control", slot=period - 1):
            engine.clock.advance_to(end)
            autoscaler.run_slot(routed, uids, recorded & (delivered < end), end)
            # Post-scaling fleet state with the clock on the boundary — the
            # same instant the event executor samples, so the series align.
            telemetry.recorder.sample_fleet(period - 1, autoscaler.provisioner)

    # A trailing sample can land exactly on the run horizon, after the final
    # scaling action — same ordering as the event loop's FIFO tie-break.
    with telemetry.span("slot.drain"):
        while sample_cursor < len(sample_times):
            append_utilization(sample_times[sample_cursor])
            sample_cursor += 1

        engine.clock.advance_to(horizon)
    return ExecutionMetrics(
        requests_total=requests_total,
        requests_dropped=dropped_total,
        success_buffer=successes,
        requests_succeeded=succeeded_total,
        utilization_samples=utilization_samples,
    )
