"""Autoscaling control loop.

At the end of every provisioning period the Workload Predictor and Resource
Allocator of Fig. 3 run: the requests served in the finished period are turned
into a time slot, the adaptive model predicts the workload of the next period,
the ILP picks the cheapest instance mix, and the provisioner adjusts the
running back-end to the plan.

:class:`Autoscaler` is the paper's predictive controller driven by the
:class:`~repro.core.model.AdaptiveModel`.  :meth:`Autoscaler.run_slot` is the
one control-plane slot step of every executor: each hands it the slot
window's (serving group, user, observed) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.cloud.backend import BackendPool
from repro.cloud.provisioner import Provisioner, ProvisioningError
from repro.core.allocation import (
    AllocationError,
    AllocationPlan,
    AllocationProblem,
    IlpAllocator,
    best_effort_plan,
)
from repro.core.model import AdaptiveModel, ModelDecision
from repro.core.timeslots import TimeSlot


def slot_users_per_group(
    groups, routed: np.ndarray, uids: np.ndarray, observed: np.ndarray
) -> Dict[int, set]:
    """The users each acceleration group served among the ``observed`` positions.

    Every group of ``groups`` (the model's) gets a set, empty when it served
    nobody; a routed group outside ``groups`` is added after them, ascending.
    """
    users_per_group: Dict[int, set] = {group: set() for group in groups}
    seen = np.zeros((routed.max(initial=0) + 1, uids.max(initial=0) + 1), dtype=bool)
    seen[routed[observed], uids[observed]] = True
    for group in np.flatnonzero(seen.any(axis=1)).tolist():
        users = np.flatnonzero(seen[group]).tolist()
        users_per_group.setdefault(group, set()).update(users)
    return users_per_group


@dataclass(frozen=True)
class ScalingAction:
    """What one control-loop invocation did to the back-end."""

    period_index: int
    at_ms: float
    launched: Mapping[str, int]
    terminated: Mapping[str, int]
    plan: AllocationPlan
    decision: Optional[ModelDecision] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "launched", dict(self.launched))
        object.__setattr__(self, "terminated", dict(self.terminated))


class Autoscaler:
    """Predictive autoscaler built around the adaptive model."""

    def __init__(
        self,
        model: AdaptiveModel,
        provisioner: Provisioner,
        backend: BackendPool,
        *,
        level_for_type: Optional[Mapping[str, int]] = None,
        minimum_per_group: int = 1,
    ) -> None:
        if minimum_per_group < 0:
            raise ValueError(f"minimum_per_group must be >= 0, got {minimum_per_group}")
        self.model = model
        self.provisioner = provisioner
        self.backend = backend
        self.level_for_type = dict(level_for_type) if level_for_type else None
        self.minimum_per_group = minimum_per_group
        self.actions: List[ScalingAction] = []

    def _target_counts(self, plan: AllocationPlan) -> Dict[str, int]:
        """The plan's counts, with the per-group minimum floor applied."""
        counts = dict(plan.counts)
        if self.minimum_per_group == 0:
            return counts
        # Guarantee at least `minimum_per_group` instances per demanded group so
        # the group never disappears entirely between periods.
        groups = {option.acceleration_group for option in self.model.options}
        for group in groups:
            group_types = [
                option.type_name
                for option in self.model.options
                if option.acceleration_group == group
            ]
            existing = sum(counts.get(name, 0) for name in group_types)
            if existing < self.minimum_per_group and group_types:
                cheapest = min(
                    (option for option in self.model.options if option.acceleration_group == group),
                    key=lambda option: option.cost_per_hour,
                )
                counts[cheapest.type_name] = counts.get(cheapest.type_name, 0) + (
                    self.minimum_per_group - existing
                )
        return counts

    def _apply_counts(self, target: Mapping[str, int]) -> "tuple[Dict[str, int], Dict[str, int]]":
        """Launch/terminate instances until the running mix matches ``target``."""
        launched: Dict[str, int] = {}
        terminated: Dict[str, int] = {}
        running = self.provisioner.running_by_type()
        # Terminate surplus instances first so the cap is not hit while scaling up.
        for type_name, running_count in running.items():
            surplus = running_count - target.get(type_name, 0)
            for _ in range(max(surplus, 0)):
                instance = next(
                    inst
                    for inst in self.provisioner.running_instances
                    if inst.instance_type.name == type_name
                )
                self.backend.remove_instance(instance)
                self.provisioner.terminate(instance)
                terminated[type_name] = terminated.get(type_name, 0) + 1
        # Launch the missing instances.
        running = self.provisioner.running_by_type()
        for type_name, wanted in target.items():
            missing = wanted - running.get(type_name, 0)
            for _ in range(max(missing, 0)):
                try:
                    instance = self.provisioner.launch(type_name)
                except ProvisioningError:
                    # The account cap is a hard limit; stop launching.
                    return launched, terminated
                level = (
                    self.level_for_type.get(type_name, instance.acceleration_level)
                    if self.level_for_type
                    else instance.acceleration_level
                )
                self.backend.add_instance(instance, level)
                launched[type_name] = launched.get(type_name, 0) + 1
        return launched, terminated

    def scale_for_slot(self, slot: TimeSlot, at_ms: float) -> ScalingAction:
        """Predict, plan and re-shape the fleet for an already-observed slot.

        The slot must already be recorded in the model's history (via
        ``observe_slot``); :meth:`run_slot` does both.
        """
        if self.model.can_predict():
            decision = self.model.decide(slot)
            plan = decision.plan
        else:
            # Bootstrap: provision for the workload just observed.
            decision = None
            problem = AllocationProblem(
                options=self.model.options,
                group_workloads=slot.workload_vector(self.model.groups()),
                instance_cap=self.model.instance_cap,
            )
            try:
                plan = IlpAllocator().allocate(problem)
            except AllocationError:
                # Demand already exceeds the cap: saturate it and shed load.
                plan = best_effort_plan(problem)
        target = self._target_counts(plan)
        launched, terminated = self._apply_counts(target)
        action = ScalingAction(
            period_index=len(self.actions),
            at_ms=at_ms,
            launched=launched,
            terminated=terminated,
            plan=plan,
            decision=decision,
        )
        self.actions.append(action)
        return action

    def run_slot(
        self, routed: np.ndarray, uids: np.ndarray, observed: np.ndarray, at_ms: float
    ) -> ScalingAction:
        """Observe one slot window's served requests, then scale for it.

        ``routed`` and ``uids`` are each request's serving group and user;
        ``observed`` marks the requests the slot counts (the paper's slot:
        arrived in the window and delivered before the boundary ``at_ms``).
        The slot holds, per acceleration group, the set of users it served.
        """
        model = self.model
        slot = TimeSlot.from_user_sets(
            len(model.history),
            slot_users_per_group(model.groups(), routed, uids, observed),
        )
        model.observe_slot(slot)
        return self.scale_for_slot(slot, at_ms)
