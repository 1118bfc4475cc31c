"""Figure 7a/7b: response-time decomposition across the system's components.

The paper takes timestamps across the system while a concurrent load of 30
users flows through the SDN-accelerator and reports, per acceleration level,
the contribution of each component to the total response time:

* ``T1`` — the mobile ↔ front-end round trip,
* ``T2`` — the front-end ↔ back-end round trip,
* ``T_cloud`` — the execution of the code on the instance (the dominant term,
  which shrinks as the acceleration level rises),
* plus the front-end routing overhead.

The total communication time ``T1 + T2`` stays under one second; ``T_cloud``
dominates and decreases monotonically from acceleration level 1 to level 4
(the c4.8xlarge instance the paper adds for this experiment).

:func:`run_bursts` is the burst harness this experiment shares with Fig. 8a
(:mod:`repro.experiments.figure_sdn_overhead`): it draws every per-request
sample up front and submits the bursts through
:meth:`SDNAccelerator.submit_planned`.  T1, T2 and routing are its own
draws; T_cloud and the total come from the front-end's
:class:`~repro.sdn.accelerator.RequestColumns`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog, InstanceType
from repro.cloud.server import CloudInstance
from repro.mobile.tasks import DEFAULT_TASK_POOL, OffloadableTask
from repro.network.channel import CommunicationChannel
from repro.sdn.accelerator import (
    RequestColumns,
    SDNAccelerator,
    draw_routing_overhead_ms,
)
from repro.simulation.clock import MILLISECONDS_PER_HOUR
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams

#: Instance type that provides each acceleration level in this experiment.
DEFAULT_LEVEL_TYPES: Dict[int, str] = {
    1: "t2.nano",
    2: "t2.large",
    3: "m4.10xlarge",
    4: "c4.8xlarge",
}


@dataclass
class DecompositionResult:
    """Fig. 7a/7b output: mean component times per acceleration level."""

    component_means_ms: Dict[int, Dict[str, float]]
    concurrent_users: int

    def rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for level in sorted(self.component_means_ms):
            components = self.component_means_ms[level]
            rows.append(
                {
                    "acceleration_level": level,
                    "T1_ms": round(components["T1"], 1),
                    "T2_ms": round(components["T2"], 1),
                    "routing_ms": round(components["routing"], 1),
                    "Tcloud_ms": round(components["Tcloud"], 1),
                    "Tresponse_ms": round(components["Tresponse"], 1),
                }
            )
        return rows

    def communication_time_ms(self, level: int) -> float:
        """``T1 + T2`` for one level (the paper notes it stays under 1 s)."""
        components = self.component_means_ms[level]
        return components["T1"] + components["T2"]

    def cloud_time_ms(self, level: int) -> float:
        return self.component_means_ms[level]["Tcloud"]


#: Instances provisioned per acceleration level for the decomposition run.
#: The paper does not state the group sizes; these keep every level's
#: instances within their characterized capacity for 30 concurrent users, as
#: the SDN back-end would.
DEFAULT_INSTANCES_PER_LEVEL: Dict[int, int] = {1: 8, 2: 4, 3: 1, 4: 1}


def run_bursts(
    *,
    instance_type: InstanceType,
    instances: int,
    level: int,
    task: OffloadableTask,
    rng: np.random.Generator,
    burst_sizes: Sequence[int],
    burst_gap_ms: float,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Push bursts of simultaneous offloads through one SDN front-end.

    Burst ``k`` submits ``burst_sizes[k]`` requests (the next rows) at
    ``k * burst_gap_ms`` to ``instances`` instances of ``instance_type``
    serving ``level``.  Every per-request sample is drawn from ``rng`` up
    front, in this order: work units, T1 and T2 over the default LTE
    channel, service jitter and routing overhead.  Routing comes last, so
    swapping the routing model leaves every other draw unchanged.

    Returns the rows of the requests that completed, in delivery order, and
    the component times of every submitted request by row (submission
    order): ``T1``, ``T2``, ``routing``, ``Tcloud`` and ``Tresponse``.  A
    dropped request's ``Tcloud`` and ``Tresponse`` are 0.
    """
    engine = SimulationEngine()
    backend = BackendPool()
    for _ in range(instances):
        backend.add_instance(CloudInstance(engine, instance_type), level)

    bounds = np.concatenate(([0], np.cumsum(burst_sizes))).tolist()
    arrival_ms = np.repeat(np.arange(len(burst_sizes)) * burst_gap_ms, burst_sizes)
    count = arrival_ms.size
    columns = RequestColumns(count)
    accelerator = SDNAccelerator(engine, backend, columns)
    hours_of_day = arrival_ms / MILLISECONDS_PER_HOUR
    channel = CommunicationChannel(rng=rng)
    work_units = task.sample_work_units_many(rng, count)
    t1_ms = channel.sample_t1_many(hours_of_day)
    t2_ms = channel.sample_t2_many(hours_of_day)
    jitter_z = rng.standard_normal(count)
    routing_ms = draw_routing_overhead_ms(rng, count)

    def _submit_burst(first: int, end: int) -> None:
        for index in range(first, end):
            accelerator.submit_planned(
                row=index,
                acceleration_group=level,
                work_units=float(work_units[index]),
                t1_ms=float(t1_ms[index]),
                t2_ms=float(t2_ms[index]),
                routing_ms=float(routing_ms[index]),
                jitter_z=float(jitter_z[index]),
            )

    for burst in range(len(burst_sizes)):
        engine.schedule_at(
            burst * burst_gap_ms,
            functools.partial(_submit_burst, bounds[burst], bounds[burst + 1]),
            label=f"burst{burst}",
        )
    engine.run()
    accelerator.delivery_buffer.flush(math.inf)
    delivered = np.asarray(accelerator.delivered, dtype=np.int64)
    return delivered[columns.success[delivered]], {
        "T1": t1_ms,
        "T2": t2_ms,
        "routing": routing_ms,
        "Tcloud": columns.cloud_ms,
        "Tresponse": columns.response_ms,
    }


def run_fig7_decomposition(
    *,
    seed: int = 0,
    catalog: Optional[InstanceCatalog] = None,
    level_types: Optional[Mapping[int, str]] = None,
    instances_per_level: Optional[Mapping[int, int]] = None,
    concurrent_users: int = 30,
    rounds: int = 8,
    task_name: str = "minimax",
    round_gap_ms: float = 30_000.0,
) -> DecompositionResult:
    """Run the 30-concurrent-user decomposition experiment per acceleration level.

    For each level, a small group of instances of the corresponding type is
    provisioned (``instances_per_level``), ``rounds`` bursts of
    ``concurrent_users`` simultaneous minimax offloads are pushed through the
    SDN front-end, and the mean of each response-time component is reported.
    """
    if concurrent_users < 1:
        raise ValueError(f"concurrent_users must be >= 1, got {concurrent_users}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    catalog = catalog if catalog is not None else DEFAULT_CATALOG
    level_types = dict(level_types) if level_types is not None else dict(DEFAULT_LEVEL_TYPES)
    instances_per_level = (
        dict(instances_per_level)
        if instances_per_level is not None
        else dict(DEFAULT_INSTANCES_PER_LEVEL)
    )
    streams = RandomStreams(seed)
    task = DEFAULT_TASK_POOL.get(task_name)

    component_means: Dict[int, Dict[str, float]] = {}
    for level, type_name in sorted(level_types.items()):
        completed, components = run_bursts(
            instance_type=catalog.get(type_name),
            instances=instances_per_level.get(level, 1),
            level=level,
            task=task,
            rng=streams.stream(f"fig7-{type_name}"),
            burst_sizes=[concurrent_users] * rounds,
            burst_gap_ms=round_gap_ms,
        )
        if not completed.size:
            raise RuntimeError(f"no successful requests for level {level}")
        # In delivery order: numpy's pairwise sums depend on it.
        component_means[level] = {
            name: float(np.mean(values[completed]))
            for name, values in components.items()
        }
    return DecompositionResult(
        component_means_ms=component_means, concurrent_users=concurrent_users
    )
