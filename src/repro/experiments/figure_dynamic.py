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

The deployment is a scenario spec (:func:`dynamic_acceleration_spec`) with
hourly slots, a uniform workload, the default cloud and the LTE network; it
runs on the scenario runner's event executor
(:func:`repro.multisite.runner.execute_multisite`), and the per-request
columns, devices and scaling actions are read from the state that run leaves
behind.  The front-end delivers requests in non-decreasing completion time,
so the columns, gathered in delivery order, are already in completion
order.  Each request's uplink T1 and downlink T2 come from the spec's LTE
channel.

Substitutions relative to the paper's testbed: the EC2 back-end is the
simulated instance model, and the 50-concurrent-user background load the paper
injects to demonstrate stability is not simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.mobile.device import MobileDevice
from repro.multisite.runner import execute_multisite
from repro.scenarios.spec import PolicySpec, ScenarioSpec, WorkloadSpec
from repro.telemetry import NULL_TELEMETRY


@dataclass
class DynamicAccelerationResult:
    """Everything the Fig. 9 / Fig. 10b / Fig. 10c panels need.

    ``user_ids``, ``groups`` (the serving acceleration group), ``success``
    and ``response_ms`` hold one entry per processed request, in delivery
    order (which is completion order).  A dropped request's response is 0.
    """

    user_ids: np.ndarray
    groups: np.ndarray
    success: np.ndarray
    response_ms: np.ndarray
    devices: Dict[int, MobileDevice]
    scaling_actions: List
    group_types: Dict[int, str]
    duration_hours: float
    total_cost: float

    # -- per-user views (Fig. 9) ------------------------------------------------

    def user_series(self, user_id: int) -> List[Dict[str, float]]:
        """Per-request series for one user: request index, response, group."""
        served = self.success & (self.user_ids == user_id)
        return [
            {
                "request_index": index,
                "response_time_ms": response_ms,
                "acceleration_group": group,
            }
            for index, (response_ms, group) in enumerate(
                zip(self.response_ms[served].tolist(), self.groups[served].tolist())
            )
        ]

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
        """Mean perceived response time per acceleration group, in first-served order."""
        groups = self.groups[self.success]
        responses = self.response_ms[self.success]
        return {
            group: float(np.mean(responses[groups == group]))
            for group in dict.fromkeys(groups.tolist())
        }

    def mean_response_by_window(self, windows: int = 16) -> List[float]:
        """Mean response time per equal-size window of the request stream (Fig. 10b trend)."""
        successes = self.response_ms[self.success]
        if not successes.size:
            return []
        chunks = np.array_split(successes, max(min(windows, successes.size), 1))
        return [float(chunk.mean()) for chunk in chunks if chunk.size]

    def success_rate(self) -> float:
        if not self.success.size:
            raise ValueError("no requests recorded")
        return int(np.count_nonzero(self.success)) / self.success.size

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
                "total_requests": int(self.success.size),
                "success_rate_pct": round(100.0 * self.success_rate(), 1),
                "provisioning_cost_usd": round(self.total_cost, 3),
                "promoted_users": sum(
                    1 for device in self.devices.values() if device.promotions
                ),
            }
        )
        return rows


def dynamic_acceleration_spec(
    *, users: int, duration_hours: float, target_requests: int, policy: PolicySpec
) -> ScenarioSpec:
    """The Section VI-C deployment as a scenario spec (not in the registry).

    Hourly provisioning slots, a ``uniform`` workload of ``target_requests``
    over the run, the default cloud (groups t2.nano/t2.large/m4.4xlarge, cap
    20, one initial instance per group), the default LTE network and the
    event executor.
    """
    return ScenarioSpec(
        name="dynamic-acceleration",
        description="Section VI-C: hourly re-provisioning under client promotion",
        users=users,
        duration_hours=duration_hours,
        slot_minutes=60.0,
        execution="event",
        workload=WorkloadSpec(pattern="uniform", target_requests=target_requests),
        policy=policy,
    )


def run_dynamic_acceleration(
    *,
    seed: int = 0,
    users: int = 100,
    duration_hours: float = 8.0,
    target_requests: int = 4000,
    policy: PolicySpec = PolicySpec(),
) -> DynamicAccelerationResult:
    """Run the full 100-user dynamic acceleration experiment.

    Parameters
    ----------
    target_requests:
        Approximate number of offloading requests over the whole run (the
        paper observes ≈4000 over 8 hours); the combined inter-arrival gap is
        derived from it.
    policy:
        The client promotion policy; defaults to the paper's static 1/50
        probability.
    """
    spec = dynamic_acceleration_spec(
        users=users,
        duration_hours=duration_hours,
        target_requests=target_requests,
        policy=policy,
    )
    run = execute_multisite(spec, seed, NULL_TELEMETRY)
    site = run.federation.site(0)
    accelerator = site.accelerator
    log = np.asarray(accelerator.delivered, dtype=np.int64)
    columns = accelerator.columns
    return DynamicAccelerationResult(
        user_ids=run.plan.user_ids[log],
        groups=columns.served_group[log],
        success=columns.success[log],
        response_ms=columns.response_ms[log],
        devices=run.devices,
        scaling_actions=list(site.autoscaler.actions),
        group_types=dict(spec.cloud.group_types),
        duration_hours=duration_hours,
        total_cost=site.total_cost(),
    )
