"""Figures 9b/9c and 10b/10c: the end-to-end dynamic acceleration experiment.

Section VI-C of the paper deploys the full system — 100 mobile users driven by
the inter-arrival statistics of the smartphone usage study, three acceleration
groups (t2.nano, t2.large, m4.4xlarge), the static minimax task, a 1/50
promotion probability on the client moderator and the adaptive model
re-provisioning the back-end every hour — for 8 hours (≈4000 requests) and
reports:

* **Fig. 9b** — a user that is never promoted perceives a stable response
  time of ≈2.5 s;
* **Fig. 9c** — a user promoted through every level perceives a stepwise
  shorter response time after each promotion;
* **Fig. 10b** — across all 100 users, the response time rises while the
  workload grows, then drops and stays low once the model allocates more
  resources;
* **Fig. 10c** — the promotion rate: users gradually move to higher groups
  and the overall response time decreases with promotion.

Substitutions relative to the paper's testbed: the EC2 back-end is the
simulated instance model, and the 50-concurrent-user background load the paper
injects to demonstrate stability is not simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog
from repro.cloud.provisioner import Provisioner
from repro.core.allocation import InstanceOption, build_options_from_catalog
from repro.core.model import AdaptiveModel
from repro.mobile.device import DEVICE_PROFILES, MobileDevice
from repro.mobile.moderator import Moderator, PromotionPolicy, StaticProbabilityPolicy
from repro.mobile.tasks import DEFAULT_TASK_POOL
from repro.sdn.accelerator import RequestRecord, SDNAccelerator
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.clock import MILLISECONDS_PER_HOUR
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams
from repro.workload.arrival import UniformArrivalProcess
from repro.workload.traces import TraceLog

#: Acceleration groups and their instance types in the Section VI-C deployment.
DEFAULT_GROUP_TYPES: Dict[int, str] = {1: "t2.nano", 2: "t2.large", 3: "m4.4xlarge"}


@dataclass
class DynamicAccelerationResult:
    """Everything the Fig. 9 / Fig. 10b / Fig. 10c panels need."""

    records: List[RequestRecord]
    devices: Dict[int, MobileDevice]
    scaling_actions: List
    trace_log: TraceLog
    group_types: Dict[int, str]
    duration_hours: float
    total_cost: float

    # -- per-user views (Fig. 9) ------------------------------------------------

    def user_series(self, user_id: int) -> List[Dict[str, float]]:
        """Per-request series for one user: request index, response, group."""
        series = []
        for index, record in enumerate(
            sorted(
                (r for r in self.records if r.user_id == user_id and r.success),
                key=lambda r: r.completed_ms,
            )
        ):
            series.append(
                {
                    "request_index": index,
                    "response_time_ms": record.response_time_ms,
                    "acceleration_group": record.acceleration_group,
                }
            )
        return series

    def stable_user(self) -> int:
        """A user that was never promoted (Fig. 9b's user 32), with most requests."""
        candidates = [
            device for device in self.devices.values() if not device.promotions
        ]
        if not candidates:
            raise ValueError("every user was promoted at least once")
        return max(candidates, key=lambda device: len(device.response_times_ms)).user_id

    def fully_promoted_user(self) -> int:
        """A user promoted to the highest group (Fig. 9c's user 8), earliest finisher."""
        highest = max(self.group_types)
        candidates = [
            device
            for device in self.devices.values()
            if device.acceleration_group == highest and device.promotions
        ]
        if not candidates:
            raise ValueError("no user reached the highest acceleration group")
        return min(candidates, key=lambda device: device.promotions[-1]).user_id

    # -- population views (Fig. 10b / Fig. 10c) --------------------------------

    def population_series(self) -> List[Dict[str, float]]:
        """All successful requests ordered by completion: the Fig. 10b heat data."""
        series = []
        ordered = sorted((r for r in self.records if r.success), key=lambda r: r.completed_ms)
        for index, record in enumerate(ordered):
            series.append(
                {
                    "request_index": index,
                    "user_id": record.user_id,
                    "acceleration_group": record.acceleration_group,
                    "response_time_ms": record.response_time_ms,
                }
            )
        return series

    def promotion_summary(self) -> Dict[int, Dict[str, float]]:
        """Per-user final group, promotion count and mean response (Fig. 10c)."""
        summary: Dict[int, Dict[str, float]] = {}
        for user_id, device in self.devices.items():
            responses = device.response_times_ms
            summary[user_id] = {
                "final_group": float(device.acceleration_group),
                "promotions": float(len(device.promotions)),
                "mean_response_ms": float(np.mean(responses)) if responses else float("nan"),
                "requests": float(len(responses)),
            }
        return summary

    def mean_response_by_group(self) -> Dict[int, float]:
        """Mean perceived response time per acceleration group."""
        grouped: Dict[int, List[float]] = {}
        for record in self.records:
            if record.success:
                grouped.setdefault(record.acceleration_group, []).append(
                    record.response_time_ms
                )
        return {group: float(np.mean(times)) for group, times in grouped.items() if times}

    def mean_response_by_window(self, windows: int = 16) -> List[float]:
        """Mean response time per equal-size window of the request stream (Fig. 10b trend)."""
        successes = [r.response_time_ms for r in sorted(self.records, key=lambda r: r.completed_ms) if r.success]
        if not successes:
            return []
        chunks = np.array_split(np.asarray(successes), max(min(windows, len(successes)), 1))
        return [float(chunk.mean()) for chunk in chunks if chunk.size]

    def success_rate(self) -> float:
        if not self.records:
            raise ValueError("no requests recorded")
        return sum(1 for r in self.records if r.success) / len(self.records)

    def rows(self) -> List[Dict[str, object]]:
        """Headline rows for the benchmark output."""
        by_group = self.mean_response_by_group()
        rows: List[Dict[str, object]] = [
            {
                "acceleration_group": group,
                "instance_type": self.group_types.get(group, "?"),
                "mean_response_ms": round(mean, 1),
            }
            for group, mean in sorted(by_group.items())
        ]
        rows.append(
            {
                "total_requests": len(self.records),
                "success_rate_pct": round(100.0 * self.success_rate(), 1),
                "provisioning_cost_usd": round(self.total_cost, 3),
                "promoted_users": sum(
                    1 for device in self.devices.values() if device.promotions
                ),
            }
        )
        return rows


def run_dynamic_acceleration(
    *,
    seed: int = 0,
    catalog: Optional[InstanceCatalog] = None,
    group_types: Optional[Mapping[int, str]] = None,
    users: int = 100,
    duration_hours: float = 8.0,
    target_requests: int = 4000,
    promotion_policy: Optional[PromotionPolicy] = None,
    task_name: str = "minimax",
    instance_cap: int = 20,
    response_threshold_ms: float = 5000.0,
    initial_instances_per_group: int = 1,
    capacity_override: Optional[Mapping[str, float]] = None,
) -> DynamicAccelerationResult:
    """Run the full 100-user dynamic acceleration experiment.

    Parameters
    ----------
    target_requests:
        Approximate number of offloading requests over the whole run (the
        paper observes ≈4000 over 8 hours); the combined inter-arrival gap is
        derived from it.
    promotion_policy:
        Defaults to the paper's static 1/50 probability.
    """
    if users < 1:
        raise ValueError(f"users must be >= 1, got {users}")
    if duration_hours <= 0:
        raise ValueError(f"duration_hours must be positive, got {duration_hours}")
    if target_requests < users:
        raise ValueError("target_requests must be at least the number of users")
    catalog = catalog if catalog is not None else DEFAULT_CATALOG
    group_types = dict(group_types) if group_types is not None else dict(DEFAULT_GROUP_TYPES)
    groups = sorted(group_types)
    lowest_group, highest_group = groups[0], groups[-1]

    streams = RandomStreams(seed)
    engine = SimulationEngine()
    rng_workload = streams.stream("dynamic-workload")
    rng_devices = streams.stream("dynamic-devices")
    rng_cloud = streams.stream("dynamic-cloud")
    rng_sdn = streams.stream("dynamic-sdn")
    task = DEFAULT_TASK_POOL.get(task_name)

    # --- back-end ------------------------------------------------------------
    backend = BackendPool()
    provisioner = Provisioner(engine, catalog, instance_cap=instance_cap, rng=rng_cloud)
    level_for_type = {type_name: group for group, type_name in group_types.items()}
    for group, type_name in group_types.items():
        for _ in range(initial_instances_per_group):
            backend.add_instance(provisioner.launch(type_name), group)

    # --- adaptive model + autoscaler ------------------------------------------
    restricted_catalog = catalog.subset(list(group_types.values()))
    options: List[InstanceOption] = []
    for option in build_options_from_catalog(
        restricted_catalog,
        work_units=task.work_units,
        response_threshold_ms=response_threshold_ms,
        capacity_override=capacity_override,
    ):
        # Re-map the catalog's acceleration level to the experiment's group id.
        options.append(
            InstanceOption(
                type_name=option.type_name,
                acceleration_group=level_for_type[option.type_name],
                cost_per_hour=option.cost_per_hour,
                capacity=option.capacity,
            )
        )
    model = AdaptiveModel(options, instance_cap=instance_cap)
    trace_log = TraceLog()
    accelerator = SDNAccelerator(engine, backend, trace_log=trace_log, rng=rng_sdn)
    autoscaler = Autoscaler(
        model, provisioner, backend, level_for_type=level_for_type, minimum_per_group=1
    )

    # --- devices and moderators ------------------------------------------------
    profile_names = list(DEVICE_PROFILES)
    devices: Dict[int, MobileDevice] = {}
    moderators: Dict[int, Moderator] = {}
    for user_id in range(users):
        profile = DEVICE_PROFILES[profile_names[int(rng_devices.integers(0, len(profile_names)))]]
        devices[user_id] = MobileDevice(
            user_id=user_id, profile=profile, acceleration_group=lowest_group
        )
        moderators[user_id] = Moderator(
            promotion_policy if promotion_policy is not None else StaticProbabilityPolicy(),
            max_group=highest_group,
            rng=streams.stream(f"moderator-{user_id}"),
        )

    # --- workload ---------------------------------------------------------------
    duration_ms = duration_hours * MILLISECONDS_PER_HOUR
    mean_gap_ms = duration_ms / target_requests
    arrival_process = UniformArrivalProcess(low_ms=0.5 * mean_gap_ms, high_ms=1.5 * mean_gap_ms)
    arrival_times = arrival_process.arrival_times_ms(
        rng_workload, start_ms=0.0, end_ms=duration_ms
    )

    def _make_completion(user_id: int):
        def _on_complete(record: RequestRecord) -> None:
            device = devices[user_id]
            if record.success:
                moderators[user_id].observe(device, record.response_time_ms, engine.now_ms)
            else:
                device.record_failure()

        return _on_complete

    for arrival in arrival_times:
        user_id = int(rng_workload.integers(0, users))

        def _submit(user_id: int = user_id) -> None:
            device = devices[user_id]
            device.requests_sent += 1
            accelerator.submit(
                user_id=user_id,
                acceleration_group=device.acceleration_group,
                work_units=task.sample_work_units(rng_workload),
                task_name=task.name,
                battery_level=device.battery.level,
                on_complete=_make_completion(user_id),
            )

        engine.schedule_at(arrival, _submit, label="dynamic:request")

    # Hourly control loop: slot the finished hour and re-provision.
    hours = int(np.ceil(duration_hours))
    for hour in range(1, hours + 1):
        period_end = min(hour * MILLISECONDS_PER_HOUR, duration_ms)
        period_start = (hour - 1) * MILLISECONDS_PER_HOUR

        def _scale(period_start: float = period_start, period_end: float = period_end) -> None:
            autoscaler.run_period_end(trace_log, period_start, period_end)

        engine.schedule_at(period_end, _scale, label=f"dynamic:scale-hour{hour}")

    # Run to the end of the experiment plus a drain margin for in-flight requests.
    engine.run(until_ms=duration_ms + 60_000.0)
    total_cost = provisioner.total_cost(include_running=True)

    return DynamicAccelerationResult(
        records=list(accelerator.records),
        devices=devices,
        scaling_actions=list(autoscaler.actions),
        trace_log=trace_log,
        group_types=dict(group_types),
        duration_hours=duration_hours,
        total_cost=total_cost,
    )
