"""Figure 8a: routing overhead introduced by the SDN-accelerator.

The paper measures the time the front-end spends routing a request to its
acceleration group and finds it is ≈150 ms for every group — "a fair price to
pay for tuning code execution on demand".  The experiment pushes a concurrent
load of 30 users through the front-end for each acceleration group and
reports the per-request routing times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog
from repro.experiments.figure_decomposition import DEFAULT_LEVEL_TYPES, run_bursts
from repro.mobile.tasks import DEFAULT_TASK_POOL
from repro.simulation.randomness import RandomStreams


@dataclass
class SdnOverheadResult:
    """Fig. 8a output: routing overhead samples and means per acceleration group."""

    routing_samples_ms: Dict[int, List[float]]
    overall_mean_ms: float

    def mean_by_group(self) -> Dict[int, float]:
        return {
            group: float(np.mean(samples))
            for group, samples in self.routing_samples_ms.items()
            if samples
        }

    def rows(self) -> List[Dict[str, object]]:
        rows = [
            {
                "acceleration_group": group,
                "mean_routing_ms": round(mean, 1),
                "samples": len(self.routing_samples_ms[group]),
            }
            for group, mean in sorted(self.mean_by_group().items())
        ]
        rows.append({"overall_mean_routing_ms": round(self.overall_mean_ms, 1)})
        return rows


def run_fig8a_sdn_overhead(
    *,
    seed: int = 0,
    catalog: Optional[InstanceCatalog] = None,
    level_types: Optional[Mapping[int, str]] = None,
    concurrent_users: int = 30,
    requests_per_group: int = 250,
    task_name: str = "quicksort",
) -> SdnOverheadResult:
    """Measure the front-end routing overhead per acceleration group.

    ``requests_per_group`` defaults to ≈250, matching the x-axis extent of
    Fig. 8a.
    """
    if requests_per_group < 1:
        raise ValueError(f"requests_per_group must be >= 1, got {requests_per_group}")
    catalog = catalog if catalog is not None else DEFAULT_CATALOG
    level_types = dict(level_types) if level_types is not None else dict(DEFAULT_LEVEL_TYPES)
    streams = RandomStreams(seed)
    task = DEFAULT_TASK_POOL.get(task_name)

    # Bursts of `concurrent_users`, spaced so the instance drains between them.
    full_bursts, remainder = divmod(requests_per_group, concurrent_users)
    burst_sizes = [concurrent_users] * full_bursts + ([remainder] if remainder else [])
    routing_samples: Dict[int, List[float]] = {}
    for level, type_name in sorted(level_types.items()):
        _, routing_ms = run_bursts(
            instance_type=catalog.get(type_name),
            instances=1,
            level=level,
            task=task,
            rng=streams.stream(f"fig8a-{type_name}"),
            burst_sizes=burst_sizes,
            burst_gap_ms=5_000.0,
        )
        routing_samples[level] = routing_ms.tolist()
    all_samples = [sample for samples in routing_samples.values() for sample in samples]
    return SdnOverheadResult(
        routing_samples_ms=routing_samples,
        overall_mean_ms=float(np.mean(all_samples)),
    )
