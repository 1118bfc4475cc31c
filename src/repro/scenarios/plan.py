"""Bulk pre-generation of per-request randomness (the "request plan").

Profiling the scenario runner showed the data plane dominated not by model
work but by scalar RNG round trips: one inter-arrival gap draw per arrival,
two log-normal draws per request for the access/intra-cloud RTTs, one normal
draw for the routing overhead, one for the task's work requirement and one
for the instance's service jitter.  The request plan pulls all of those
draws forward into a handful of vectorised numpy calls:

* arrival times come from :meth:`ArrivalProcess.arrival_times_array`
  (chunked gap draws + ``cumsum`` instead of a Python loop),
* RTTs come from ``CommunicationChannel.sample_t1_many/sample_t2_many``
  (``LogNormalLatencyModel`` sampled once per hop with per-request
  hour-of-day modulation) once the broker has picked each request's
  serving site; they are written into the plan's own T1/T2 columns,
* work units come from :meth:`OffloadableTask.sample_work_units_many`, and
* service jitter is pre-drawn as standard-normal values that
  :func:`~repro.cloud.server.jittered_work_units` scales by the landing
  instance's jitter fraction.

Both execution modes consume the *same* plan, which is what makes the
batched fast path exactly comparable to the event path: for a deterministic
configuration the two produce identical metrics, and for stochastic ones
they differ only through the service-queueing approximation, never through
different random draws.

Each per-request column exists once per run: the network sampling, the
fault overlay and the brokers write into the plan's arrays in place, and
the executors derive anything else (uplink, downlink, dispatch times) per
slot window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mobile.tasks import OffloadableTask
from repro.sdn.accelerator import draw_routing_overhead_ms
from repro.workload.arrival import ArrivalProcess


@dataclass(frozen=True)
class RequestPlan:
    """All per-request random draws of one scenario run, as parallel arrays."""

    arrival_ms: np.ndarray
    user_ids: np.ndarray
    work_units: np.ndarray
    jitter_z: np.ndarray
    t1_ms: np.ndarray
    t2_ms: np.ndarray
    routing_ms: np.ndarray

    def __post_init__(self) -> None:
        length = self.arrival_ms.size
        for name in ("user_ids", "work_units", "jitter_z", "t1_ms", "t2_ms", "routing_ms"):
            if getattr(self, name).size != length:
                raise ValueError(
                    f"plan arrays must align: {name} has {getattr(self, name).size} "
                    f"entries, arrival_ms has {length}"
                )

    def __len__(self) -> int:
        return int(self.arrival_ms.size)


def build_request_plan(
    *,
    arrival_process: ArrivalProcess,
    task: OffloadableTask,
    users: int,
    duration_ms: float,
    rng_workload: np.random.Generator,
    rng_routing: np.random.Generator,
    rng_jitter: np.random.Generator,
) -> RequestPlan:
    """Draw one scenario's complete request plan in bulk.

    Stream discipline mirrors the event loop's draw order: the workload
    stream yields arrival gaps, then user assignments, then work units; the
    SDN stream yields the routing overheads
    (:func:`~repro.sdn.accelerator.draw_routing_overhead_ms`); a dedicated jitter stream
    yields the service-time draws.

    T1/T2 start zero-filled: the runner writes each request's network draws
    into them in place once the broker has picked its serving site (at plan
    time for the static policies, per slot for the dynamic one).
    """
    if users < 1:
        raise ValueError(f"users must be >= 1, got {users}")
    arrivals = arrival_process.arrival_times_array(
        rng_workload, start_ms=0.0, end_ms=duration_ms
    )
    count = arrivals.size
    user_ids = rng_workload.integers(0, users, size=count)
    work = task.sample_work_units_many(rng_workload, count)
    routing = draw_routing_overhead_ms(rng_routing, count)
    jitter_z = rng_jitter.standard_normal(count)
    return RequestPlan(
        arrival_ms=arrivals,
        user_ids=user_ids,
        work_units=work,
        jitter_z=jitter_z,
        t1_ms=np.zeros(count),
        t2_ms=np.zeros(count),
        routing_ms=routing,
    )
