"""The SDN-accelerator front-end.

The front-end contains two of the components of Fig. 3:

* the **Request Handler (RH)** — the entry point that accepts an offloading
  request from a mobile device (``SDNAccelerator.submit_planned``), and
* the **Code Offloader (CO)** — the routing step that determines the level of
  acceleration required and forwards the request to the corresponding group
  of back-end instances, recording each processed request.

Processed requests are recorded in columns, not per-request objects.  The
caller numbers its requests by row (a row of the scenario's request plan, or
of a burst harness) and allocates one :class:`RequestColumns` for all of
them; every front-end it submits to writes the row's requesting and serving
group, success, response time and cloud time there.  Each front-end keeps
the rows it delivered, in delivery order, in
:attr:`SDNAccelerator.delivered`.  The paper's trace schema (Section IV-A)
is ``<timestamp, user-id, acceleration-group, battery-level,
round-trip-time>``; the adaptive model consumes only the (acceleration
group, user) pairs of each time slot, so at every slot boundary the event
executor gathers the serving-group column and the plan's user and arrival
columns at the rows delivered since the previous boundary, for
:meth:`repro.sdn.autoscaler.Autoscaler.run_slot`.

The paper measures the overhead the front-end adds to a request at ≈150 ms
(Fig. 8a), roughly constant across acceleration groups;
:func:`draw_routing_overhead_ms` is the one definition of that distribution.
Callers draw every per-request sample (T1, T2, routing, service jitter) up
front and pass it in, so the front-end itself consumes no randomness.
Response-time accounting follows the Fig. 7a decomposition
``T_response = T1 + T2 + T_cloud`` plus the routing overhead: T1, T2 and
routing are the caller's draws, and ``RequestColumns.cloud_ms`` holds
T_cloud.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Protocol

import numpy as np

from repro.cloud.backend import BackendPool
from repro.cloud.server import OffloadOutcome
from repro.simulation.engine import SimulationEngine


def draw_routing_overhead_ms(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` front-end routing overheads (Fig. 8a).

    Normal with mean 150 ms and standard deviation 25 ms, floored at 1 ms.
    """
    draws = rng.normal(150.0, 25.0, size=count)
    return np.maximum(draws, 1.0, out=draws)


class RequestColumns:
    """What the front-end recorded of each request, indexed by row.

    ``requested_group`` (the group the device asked for) and
    ``served_group`` (the group the routing policy chose) are written at
    submission.  ``success``, ``response_ms`` (T1 + T2 + routing + T_cloud)
    and ``cloud_ms`` (T_cloud) are written when the back-end completes the
    request; a request dropped at admission keeps ``False`` and zeros.  A
    row reaches at most one front-end, so the front-ends of every site share
    one set.  A row counts as processed once a front-end's
    :attr:`~SDNAccelerator.delivered` list holds it.
    """

    __slots__ = ("requested_group", "served_group", "success", "response_ms", "cloud_ms")

    def __init__(self, rows: int) -> None:
        self.requested_group = np.zeros(rows, dtype=np.int64)
        self.served_group = np.zeros(rows, dtype=np.int64)
        self.success = np.zeros(rows, dtype=bool)
        self.response_ms = np.zeros(rows)
        self.cloud_ms = np.zeros(rows)


#: Called once per delivered request with its row, its response time
#: (``None`` for a request dropped at admission) and its delivery instant.
DeliveryCallback = Callable[[int, Optional[float], float], None]


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
    callbacks compute each request's delivery instant and push its row
    here; nothing is delivered until the owner drains the buffer.
    :meth:`drain_until` delivers every entry strictly before the given
    instant, so an entry due at exactly that instant waits until after
    whatever the caller does at it (a submission or a slot-boundary read).
    :meth:`flush` also delivers entries at the horizon.  Entries are
    delivered in ``(delivered_ms, push order)`` order: ties go in the order
    they were pushed, so delivery order never goes back in time.  One buffer
    can be shared by several accelerators: each entry carries its owning
    accelerator, so each row lands in that accelerator's ``delivered`` list
    while the delivery order stays global.
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
        row: int,
        response_ms: Optional[float],
    ) -> None:
        heapq.heappush(
            self._heap,
            (delivered_ms, next(self._sequence), accelerator, row, response_ms),
        )

    @staticmethod
    def _deliver(entry) -> None:
        delivered_ms, _, accelerator, row, response_ms = entry
        accelerator.delivered.append(row)
        on_deliver = accelerator.on_deliver
        if on_deliver is not None:
            on_deliver(row, response_ms, delivered_ms)

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
        columns: RequestColumns,
        *,
        delivery_buffer: Optional[DeliveryBuffer] = None,
        on_deliver: Optional[DeliveryCallback] = None,
        routing_policy: Optional[RoutingPolicy] = None,
    ) -> None:
        self.engine = engine
        self._clock = engine.clock
        self.backend = backend
        self.columns = columns
        self.delivery_buffer = (
            delivery_buffer if delivery_buffer is not None else DeliveryBuffer()
        )
        self.on_deliver = on_deliver
        self.routing_policy = routing_policy if routing_policy is not None else AccelerationGroupRouting()
        #: The rows this front-end delivered, in delivery order.
        self.delivered: List[int] = []

    # -- public API -----------------------------------------------------------

    def submit_planned(
        self,
        *,
        row: int,
        acceleration_group: int,
        work_units: float,
        t1_ms: float,
        t2_ms: float,
        routing_ms: float,
        jitter_z: float,
    ) -> None:
        """Request Handler entry point: accept and route request ``row``.

        The request's T1/T2 round trips, routing overhead and standard-normal
        service-jitter draw arrive as arguments, drawn in bulk by the caller
        (:mod:`repro.scenarios.plan` for scenarios).  The request reaches the
        back-end group chosen by the routing policy after the uplink delay;
        once finished, its row goes to :attr:`delivery_buffer`, and
        :attr:`on_deliver` fires when the buffer delivers it.
        """
        if not work_units > 0:
            raise ValueError(f"work_units must be positive, got {work_units}")
        clock = self._clock
        columns = self.columns
        routed_group = self.routing_policy.route(acceleration_group, self.backend)
        columns.requested_group[row] = acceleration_group
        columns.served_group[row] = routed_group

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
                self.delivery_buffer.push(clock._now_ms, self, row, None)

        def _on_cloud_complete(outcome: OffloadOutcome) -> None:
            # The result crosses the back-end -> front-end -> mobile hops.
            delivered_ms = clock._now_ms + downlink_ms
            cloud_ms = outcome.execution_time_ms
            response_ms = t1_ms + t2_ms + routing_ms + cloud_ms
            columns.success[row] = True
            columns.response_ms[row] = response_ms
            columns.cloud_ms[row] = cloud_ms
            self.delivery_buffer.push(delivered_ms, self, row, response_ms)

        self.engine.schedule_after(downlink_ms + routing_ms, _dispatch, label="sdn:dispatch")
