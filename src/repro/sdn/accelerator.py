"""The SDN-accelerator front-end.

The front-end contains two of the components of Fig. 3:

* the **Request Handler (RH)** — the entry point that accepts an offloading
  request from a mobile device (``SDNAccelerator.submit_planned``), and
* the **Code Offloader (CO)** — the routing step that determines the level of
  acceleration required and forwards the request to the corresponding group
  of back-end instances, recording each processed request.

Each delivered request lands in :attr:`SDNAccelerator.records`, in delivery
order.  The paper's trace schema (Section IV-A) is
``<timestamp, user-id, acceleration-group, battery-level, round-trip-time>``;
the adaptive model consumes only the (acceleration group, user) pairs of each
time slot, which a :class:`RequestRecord` carries with its arrival time
(the timestamp), so no separate trace row is kept.  At every slot boundary
the event executor turns the records delivered since the previous boundary
into columns (:func:`served_columns`) for
:meth:`repro.sdn.autoscaler.Autoscaler.run_slot`.

The paper measures the overhead the front-end adds to a request at ≈150 ms
(Fig. 8a), roughly constant across acceleration groups;
:func:`draw_routing_overhead_ms` is the one definition of that distribution.
Callers draw every per-request sample (T1, T2, routing, service jitter) up
front and pass it in, so the front-end itself consumes no randomness.
Response-time accounting follows the Fig. 7a decomposition
``T_response = T1 + T2 + T_cloud`` plus the routing overhead.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, NamedTuple, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.cloud.backend import BackendPool
from repro.cloud.server import OffloadOutcome
from repro.network.channel import ResponseTimeBreakdown
from repro.simulation.engine import SimulationEngine


#: What a named tuple's generated ``__new__`` returns, without entering it:
#: each completed request builds its breakdown and record with this.
_new_tuple = tuple.__new__


def draw_routing_overhead_ms(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` front-end routing overheads (Fig. 8a).

    Normal with mean 150 ms and standard deviation 25 ms, floored at 1 ms.
    """
    return np.maximum(rng.normal(150.0, 25.0, size=count), 1.0)


class RequestRecord(NamedTuple):
    """Full accounting of one request processed by the front-end.

    Immutable; a named tuple because one is built per request.
    """

    request_id: int
    user_id: int
    acceleration_group: int
    arrival_ms: float
    completed_ms: float
    success: bool
    breakdown: Optional[ResponseTimeBreakdown]

    @property
    def response_time_ms(self) -> float:
        """Total response time perceived by the device (0 for dropped requests)."""
        breakdown = self.breakdown
        if breakdown is None:
            return 0.0
        return breakdown.total_ms


def served_columns(
    records: Sequence[RequestRecord], start_ms: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (serving group, user, observed) columns of delivered records.

    ``observed`` marks the records that arrived at or after ``start_ms``.
    Handed the records delivered since the previous slot boundary, these are
    the requests of the slot that starts at ``start_ms``: a record arrives
    before it is delivered, so none from a later slot is among them.
    """
    count = len(records)
    return (
        np.fromiter((record.acceleration_group for record in records), np.int64, count),
        np.fromiter((record.user_id for record in records), np.int64, count),
        np.fromiter((record.arrival_ms >= start_ms for record in records), bool, count),
    )


class RoutingPolicy(Protocol):
    """Maps a request's requested acceleration group to the group actually used."""

    def route(self, requested_group: int, pool: BackendPool) -> int:
        """Return the acceleration group the request should be dispatched to."""
        ...


class AccelerationGroupRouting:
    """The paper's policy: honour the group requested by the device."""

    def route(self, requested_group: int, pool: BackendPool) -> int:
        return pool.clamp_level(requested_group)


class RoundRobinRouting:
    """Baseline policy (Section VII-3 contrast): ignore the requested group.

    Requests are spread over all provisioned groups in round-robin order,
    which is what a fixed load balancer would do; user perception is ignored.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def route(self, requested_group: int, pool: BackendPool) -> int:
        levels = pool.levels
        if not levels:
            raise ValueError("back-end pool is empty")
        level = levels[self._cursor % len(levels)]
        self._cursor += 1
        return level


class DeliveryBuffer:
    """Time-ordered buffer of finished requests awaiting delivery to the device.

    :meth:`SDNAccelerator.submit_planned`'s completion and admission-drop
    callbacks compute each request's delivery instant and push the finished
    :class:`RequestRecord` here; nothing is delivered until the owner drains
    the buffer.  :meth:`drain_until` delivers every entry strictly before the
    given instant, so an entry due at exactly that instant waits until after
    whatever the caller does at it (a submission or a slot-boundary read).
    :meth:`flush` also delivers entries at the horizon.  Entries are
    delivered in ``(delivered_ms, push order)`` order: ties go in the order
    they were pushed.  One buffer can be shared by several accelerators: each
    entry carries its owning accelerator, so each record lands in that
    accelerator's ``records`` while the delivery order stays global.
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
        on_complete: Optional[Callable[[RequestRecord], None]],
    ) -> None:
        heapq.heappush(
            self._heap,
            (delivered_ms, next(self._sequence), accelerator, record, on_complete),
        )

    @staticmethod
    def _deliver(entry) -> None:
        _, _, accelerator, record, on_complete = entry
        accelerator.records.append(record)
        if on_complete is not None:
            on_complete(record)

    def drain_until(self, now_ms: float) -> None:
        """Deliver every buffered result strictly before ``now_ms``."""
        heap = self._heap
        while heap and heap[0][0] < now_ms:
            self._deliver(heapq.heappop(heap))

    def flush(self, horizon_ms: float) -> None:
        """End-of-run flush: deliver results up to and including ``horizon_ms``.

        Entries past the horizon stay undelivered.
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
        routing_policy: Optional[RoutingPolicy] = None,
        delivery_buffer: Optional[DeliveryBuffer] = None,
    ) -> None:
        self.engine = engine
        self._clock = engine.clock
        self.backend = backend
        self.routing_policy = routing_policy if routing_policy is not None else AccelerationGroupRouting()
        self.records: List[RequestRecord] = []
        self._request_ids = itertools.count()
        self.delivery_buffer = (
            delivery_buffer if delivery_buffer is not None else DeliveryBuffer()
        )

    # -- public API -----------------------------------------------------------

    def submit_planned(
        self,
        *,
        user_id: int,
        acceleration_group: int,
        work_units: float,
        t1_ms: float,
        t2_ms: float,
        routing_ms: float,
        jitter_z: float,
        on_complete: Optional[Callable[[RequestRecord], None]] = None,
    ) -> int:
        """Request Handler entry point: accept and route one offloading request.

        The request's T1/T2 round trips, routing overhead and standard-normal
        service-jitter draw arrive as arguments, drawn in bulk by the caller
        (:mod:`repro.scenarios.plan` for scenarios).  The request reaches the
        back-end group chosen by the routing policy after the uplink delay;
        its finished :class:`RequestRecord` goes to :attr:`delivery_buffer`,
        and ``on_complete`` fires when the buffer delivers it.

        Returns the request id assigned by the front-end.
        """
        if not work_units > 0:
            raise ValueError(f"work_units must be positive, got {work_units}")
        request_id = next(self._request_ids)
        clock = self._clock
        arrival_ms = clock._now_ms
        routed_group = self.routing_policy.route(acceleration_group, self.backend)

        # The uplink half of both hops plus the routing step happen before the
        # code starts executing; the downlink half delivers the result.
        downlink_ms = (t1_ms + t2_ms) / 2.0

        def _dispatch() -> None:
            rejected = self.backend.dispatch(
                routed_group, work_units, _on_cloud_complete, jitter_z=jitter_z
            )
            if rejected is not None:
                # Dropped at admission: the failure is reported back to the
                # device at once.
                now_ms = clock._now_ms
                record = RequestRecord(
                    request_id, user_id, routed_group, arrival_ms, now_ms, False, None
                )
                self.delivery_buffer.push(now_ms, self, record, on_complete)

        def _on_cloud_complete(outcome: OffloadOutcome) -> None:
            # The result crosses the back-end -> front-end -> mobile hops.
            delivered_ms = clock._now_ms + downlink_ms
            breakdown = _new_tuple(
                ResponseTimeBreakdown, (t1_ms, t2_ms, routing_ms, outcome.execution_time_ms)
            )
            record = _new_tuple(
                RequestRecord,
                (request_id, user_id, routed_group, arrival_ms, delivered_ms, True, breakdown),
            )
            self.delivery_buffer.push(delivered_ms, self, record, on_complete)

        self.engine.schedule_after(downlink_ms + routing_ms, _dispatch, label="sdn:dispatch")
        return request_id
