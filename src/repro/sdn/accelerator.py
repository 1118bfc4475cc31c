"""The SDN-accelerator front-end.

The front-end contains two of the components of Fig. 3:

* the **Request Handler (RH)** — the entry point that accepts an offloading
  request from a mobile device (``SDNAccelerator.submit``), and
* the **Code Offloader (CO)** — the routing step that determines the level of
  acceleration required and forwards the request to the corresponding group
  of back-end instances, logging each processed request into the trace store.

The paper measures the overhead the front-end adds to a request at ≈150 ms
(Fig. 8a), roughly constant across acceleration groups; the default routing
overhead model reproduces that.  Response-time accounting follows the Fig. 7a
decomposition ``T_response = T1 + T2 + T_cloud`` plus the routing overhead.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol

import numpy as np

from repro.cloud.backend import BackendPool
from repro.cloud.server import OffloadOutcome
from repro.network.channel import CommunicationChannel, ResponseTimeBreakdown
from repro.simulation.engine import SimulationEngine
from repro.simulation.stats import OnlineStatistics
from repro.workload.traces import TraceLog


@dataclass(frozen=True)
class RequestRecord:
    """Full accounting of one request processed by the front-end."""

    request_id: int
    user_id: int
    acceleration_group: int
    task_name: str
    arrival_ms: float
    completed_ms: float
    success: bool
    breakdown: Optional[ResponseTimeBreakdown]

    @property
    def response_time_ms(self) -> float:
        """Total response time perceived by the device (0 for dropped requests)."""
        if self.breakdown is None:
            return 0.0
        return self.breakdown.total_ms


class RoutingPolicy(Protocol):
    """Maps a request's requested acceleration group to the group actually used."""

    def route(self, requested_group: int, pool: BackendPool, rng: np.random.Generator) -> int:
        """Return the acceleration group the request should be dispatched to."""
        ...


class AccelerationGroupRouting:
    """The paper's policy: honour the group requested by the device."""

    def route(self, requested_group: int, pool: BackendPool, rng: np.random.Generator) -> int:
        return pool.clamp_level(requested_group)


class RoundRobinRouting:
    """Baseline policy (Section VII-3 contrast): ignore the requested group.

    Requests are spread over all provisioned groups in round-robin order,
    which is what a fixed load balancer would do; user perception is ignored.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def route(self, requested_group: int, pool: BackendPool, rng: np.random.Generator) -> int:
        levels = pool.levels
        if not levels:
            raise ValueError("back-end pool is empty")
        level = levels[self._cursor % len(levels)]
        self._cursor += 1
        return level


class DeliveryBuffer:
    """Fused result delivery: a time-ordered buffer replacing ``sdn:deliver`` events.

    With a buffer attached, :meth:`SDNAccelerator._finish` computes the
    delivery instant up front and pushes a finished :class:`RequestRecord`
    here instead of scheduling a per-request engine event — one event per
    request saved on the hot path.  The scenario executors drain the buffer
    at the points where delivery effects become observable (request
    submission, slot boundaries), strictly *before* the current instant, so
    delivery ordering relative to submissions and control-loop reads is
    identical to the event-per-delivery path: at equal timestamps a
    setup-scheduled submission/scale event always preceded a run-time
    scheduled delivery event anyway (the federation event executor
    front-schedules both).  Order among deliveries is
    ``(delivered_ms, push order)``; push order equals the order the old
    delivery events would have been scheduled in, so the tie-break matches
    too.  One buffer can be shared by several accelerators (the federation
    event executor does): each entry carries its owning accelerator, keeping
    the per-site trace logs and record lists intact while preserving the
    global delivery order the shared per-user moderators observe.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list = []
        self._sequence = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self,
        delivered_ms: float,
        accelerator: "SDNAccelerator",
        record: RequestRecord,
        battery_level: float,
        on_complete: Optional[Callable[[RequestRecord], None]],
    ) -> None:
        heapq.heappush(
            self._heap,
            (
                delivered_ms,
                next(self._sequence),
                accelerator,
                record,
                battery_level,
                on_complete,
            ),
        )

    @staticmethod
    def _deliver(entry) -> None:
        _, _, accelerator, record, battery_level, on_complete = entry
        accelerator.records.append(record)
        accelerator.trace_log.log(
            timestamp_ms=record.arrival_ms,
            user_id=record.user_id,
            acceleration_group=record.acceleration_group,
            battery_level=battery_level,
            round_trip_time_ms=record.response_time_ms,
        )
        if on_complete is not None:
            on_complete(record)

    def drain_until(self, now_ms: float) -> None:
        """Deliver every buffered result strictly before ``now_ms``."""
        heap = self._heap
        while heap and heap[0][0] < now_ms:
            self._deliver(heapq.heappop(heap))

    def flush(self, horizon_ms: float) -> None:
        """End-of-run flush: deliver results up to and including ``horizon_ms``.

        Entries past the horizon stay undelivered, exactly as their engine
        events would have (the engine stops at the drain horizon).
        """
        heap = self._heap
        while heap and heap[0][0] <= horizon_ms:
            self._deliver(heapq.heappop(heap))


class SDNAccelerator:
    """The cloud-side front-end that routes offloaded code to acceleration groups."""

    def __init__(
        self,
        engine: SimulationEngine,
        backend: BackendPool,
        *,
        channel: Optional[CommunicationChannel] = None,
        trace_log: Optional[TraceLog] = None,
        rng: Optional[np.random.Generator] = None,
        routing_policy: Optional[RoutingPolicy] = None,
        routing_overhead_mean_ms: float = 150.0,
        routing_overhead_std_ms: float = 25.0,
        delivery_buffer: Optional[DeliveryBuffer] = None,
    ) -> None:
        if routing_overhead_mean_ms < 0:
            raise ValueError(
                f"routing_overhead_mean_ms must be >= 0, got {routing_overhead_mean_ms}"
            )
        if routing_overhead_std_ms < 0:
            raise ValueError(
                f"routing_overhead_std_ms must be >= 0, got {routing_overhead_std_ms}"
            )
        self.engine = engine
        self.backend = backend
        self.channel = channel if channel is not None else CommunicationChannel(rng=rng)
        self.trace_log = trace_log if trace_log is not None else TraceLog()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.routing_policy = routing_policy if routing_policy is not None else AccelerationGroupRouting()
        self.routing_overhead_mean_ms = routing_overhead_mean_ms
        self.routing_overhead_std_ms = routing_overhead_std_ms
        self.records: List[RequestRecord] = []
        self.routing_stats = OnlineStatistics()
        self.per_group_routing: Dict[int, List[float]] = {}
        self._request_ids = itertools.count()
        # None keeps the historical event-per-delivery path (figure
        # experiments and unit harnesses); the scenario executors attach a
        # buffer and drain it themselves.
        self.delivery_buffer = delivery_buffer

    # -- internals ------------------------------------------------------------

    def _sample_routing_overhead_ms(self) -> float:
        if self.routing_overhead_std_ms == 0:
            return self.routing_overhead_mean_ms
        sample = self._rng.normal(self.routing_overhead_mean_ms, self.routing_overhead_std_ms)
        return float(max(sample, 1.0))

    # -- public API -----------------------------------------------------------

    def submit(
        self,
        *,
        user_id: int,
        acceleration_group: int,
        work_units: float,
        task_name: str = "",
        battery_level: float = 1.0,
        on_complete: Optional[Callable[[RequestRecord], None]] = None,
    ) -> int:
        """Request Handler entry point: accept and route one offloading request.

        The request is routed immediately (after the simulated routing
        overhead) to the back-end group selected by the routing policy;
        ``on_complete`` fires when the result would arrive back at the mobile
        device, with the full :class:`RequestRecord`.

        Returns the request id assigned by the front-end.
        """
        if work_units <= 0:
            # Validate before sampling so invalid submissions leave the
            # channel/SDN random streams untouched (the historical contract).
            raise ValueError(f"work_units must be positive, got {work_units}")
        hour_of_day = (self.engine.now_ms / 3_600_000.0) % 24.0
        t1_ms = self.channel.sample_t1_ms(hour_of_day)
        t2_ms = self.channel.sample_t2_ms(hour_of_day)
        routing_ms = self._sample_routing_overhead_ms()
        return self.submit_planned(
            user_id=user_id,
            acceleration_group=acceleration_group,
            work_units=work_units,
            t1_ms=t1_ms,
            t2_ms=t2_ms,
            routing_ms=routing_ms,
            task_name=task_name,
            battery_level=battery_level,
            on_complete=on_complete,
        )

    def submit_planned(
        self,
        *,
        user_id: int,
        acceleration_group: int,
        work_units: float,
        t1_ms: float,
        t2_ms: float,
        routing_ms: float,
        task_name: str = "",
        battery_level: float = 1.0,
        jitter_z: Optional[float] = None,
        on_complete: Optional[Callable[[RequestRecord], None]] = None,
    ) -> int:
        """Accept one request whose network/routing samples were pre-drawn.

        This is the entry point of the plan-driven scenario runner: the
        per-request log-normal RTTs, routing overhead and (optionally) the
        service-time jitter draw arrive as arguments, sampled in bulk by
        :mod:`repro.scenarios.plan`, so the front-end performs no scalar RNG
        work on the hot path.  :meth:`submit` delegates here after sampling.
        """
        if work_units <= 0:
            raise ValueError(f"work_units must be positive, got {work_units}")
        request_id = next(self._request_ids)
        arrival_ms = self.engine.now_ms
        # Per-user routing policies (e.g. the flow-table policy) need to know
        # which user the request belongs to before deciding the group.
        observe_user = getattr(self.routing_policy, "observe_user", None)
        if callable(observe_user):
            observe_user(user_id)
        routed_group = self.routing_policy.route(acceleration_group, self.backend, self._rng)
        self.routing_stats.add(routing_ms)
        self.per_group_routing.setdefault(routed_group, []).append(routing_ms)

        # The uplink half of both hops plus the routing step happen before the
        # code starts executing; the downlink half delivers the result.
        uplink_ms = (t1_ms + t2_ms) / 2.0 + routing_ms
        downlink_ms = (t1_ms + t2_ms) / 2.0

        def _dispatch() -> None:
            outcome = self.backend.dispatch(
                routed_group, work_units, _on_cloud_complete, jitter_z=jitter_z
            )
            if outcome is not None:
                # Dropped at admission: the failure is reported back to the
                # device over the downlink immediately.
                self._finish(
                    request_id=request_id,
                    user_id=user_id,
                    group=routed_group,
                    task_name=task_name,
                    arrival_ms=arrival_ms,
                    battery_level=battery_level,
                    breakdown=None,
                    downlink_ms=downlink_ms,
                    on_complete=on_complete,
                )

        def _on_cloud_complete(outcome: OffloadOutcome) -> None:
            breakdown = ResponseTimeBreakdown(
                t1_ms=t1_ms,
                t2_ms=t2_ms,
                routing_ms=routing_ms,
                cloud_ms=outcome.execution_time_ms,
            )
            self._finish(
                request_id=request_id,
                user_id=user_id,
                group=routed_group,
                task_name=task_name,
                arrival_ms=arrival_ms,
                battery_level=battery_level,
                breakdown=breakdown,
                downlink_ms=downlink_ms,
                on_complete=on_complete,
            )

        self.engine.schedule_after(uplink_ms, _dispatch, label="sdn:dispatch")
        return request_id

    def _finish(
        self,
        *,
        request_id: int,
        user_id: int,
        group: int,
        task_name: str,
        arrival_ms: float,
        battery_level: float,
        breakdown: Optional[ResponseTimeBreakdown],
        downlink_ms: float,
        on_complete: Optional[Callable[[RequestRecord], None]],
    ) -> None:
        """Deliver the result (or the failure) back to the mobile device."""
        # The downlink legs (back-end -> front-end -> mobile) complete after
        # the remaining half of the communication delays.
        remaining = downlink_ms if breakdown is not None else 0.0
        if self.delivery_buffer is not None:
            delivered_ms = self.engine.now_ms + remaining
            record = RequestRecord(
                request_id=request_id,
                user_id=user_id,
                acceleration_group=group,
                task_name=task_name,
                arrival_ms=arrival_ms,
                completed_ms=delivered_ms,
                success=breakdown is not None,
                breakdown=breakdown,
            )
            self.delivery_buffer.push(
                delivered_ms, self, record, battery_level, on_complete
            )
            return

        def _deliver() -> None:
            record = RequestRecord(
                request_id=request_id,
                user_id=user_id,
                acceleration_group=group,
                task_name=task_name,
                arrival_ms=arrival_ms,
                completed_ms=self.engine.now_ms,
                success=breakdown is not None,
                breakdown=breakdown,
            )
            self.records.append(record)
            self.trace_log.log(
                timestamp_ms=arrival_ms,
                user_id=user_id,
                acceleration_group=group,
                battery_level=battery_level,
                round_trip_time_ms=record.response_time_ms,
            )
            if on_complete is not None:
                on_complete(record)

        self.engine.schedule_after(remaining, _deliver, label="sdn:deliver")

    # -- reporting -------------------------------------------------------------

    @property
    def processed_requests(self) -> int:
        """Number of requests fully processed (successful or dropped)."""
        return len(self.records)

    def success_rate(self) -> float:
        """Fraction of processed requests that completed successfully."""
        if not self.records:
            raise ValueError("no requests processed yet")
        successes = sum(1 for record in self.records if record.success)
        return successes / len(self.records)

    def mean_routing_overhead_ms(self) -> float:
        """Mean front-end routing overhead (the ≈150 ms of Fig. 8a)."""
        return self.routing_stats.mean

    def response_times_by_group(self) -> Dict[int, List[float]]:
        """Successful response times keyed by acceleration group."""
        grouped: Dict[int, List[float]] = {}
        for record in self.records:
            if record.success:
                grouped.setdefault(record.acceleration_group, []).append(
                    record.response_time_ms
                )
        return grouped

    def records_for_user(self, user_id: int) -> List[RequestRecord]:
        """All records of one user, in completion order."""
        return [record for record in self.records if record.user_id == user_id]
