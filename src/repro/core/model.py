"""The combined adaptive model.

:class:`AdaptiveModel` is the component the SDN-accelerator invokes at the end
of each provisioning period: it

1. records the finished period as a time slot
   (:class:`~repro.core.timeslots.TimeSlotHistory`),
2. predicts the workload of the next period with the edit-distance predictor
   (:class:`~repro.core.prediction.WorkloadPredictor`), and
3. computes the cost-minimal instance allocation for the predicted workload
   with the ILP allocator (:class:`~repro.core.allocation.IlpAllocator`).

The paper logs every request as
``<timestamp, user-id, acceleration-group, battery-level, round-trip-time>``
(Section IV-A) and slices the log into equal-length slots.  Of those fields
the model consumes only the (acceleration group, user) pairs of each slot:
a slot is the set of users each group served.  The timestamp places a request
in its slot; the battery level and round-trip time are not read.  The slot
itself is built by :meth:`repro.sdn.autoscaler.Autoscaler.run_slot`, the one
slot step every executor calls.

The model is substrate-independent: it consumes only time slots and an
instance-option table, so it can be run against real production logs just
as well as against the simulated testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.allocation import (
    AllocationError,
    AllocationPlan,
    AllocationProblem,
    IlpAllocator,
    InstanceOption,
    best_effort_plan,
)
from repro.core.prediction import PredictionOutcome, WorkloadPredictor
from repro.core.timeslots import TimeSlot, TimeSlotHistory
from repro.simulation.clock import MILLISECONDS_PER_HOUR


@dataclass(frozen=True)
class ModelDecision:
    """One end-of-period decision of the adaptive model."""

    period_index: int
    current_slot: TimeSlot
    prediction: PredictionOutcome
    plan: AllocationPlan

    @property
    def predicted_workloads(self) -> Dict[int, int]:
        return self.prediction.predicted_slot.workload_vector()


class AdaptiveModel:
    """Workload prediction plus cost-optimal allocation (Section IV)."""

    def __init__(
        self,
        options: Sequence[InstanceOption],
        *,
        slot_length_ms: float = MILLISECONDS_PER_HOUR,
        instance_cap: int = 20,
        predictor: Optional[WorkloadPredictor] = None,
        allocator: Optional[IlpAllocator] = None,
        min_history: int = 2,
    ) -> None:
        if not options:
            raise ValueError("the model needs at least one instance option")
        if slot_length_ms <= 0:
            raise ValueError(f"slot_length_ms must be positive, got {slot_length_ms}")
        self.options = tuple(options)
        self.slot_length_ms = slot_length_ms
        self.instance_cap = instance_cap
        if min_history < 2:
            raise ValueError(f"min_history must be >= 2, got {min_history}")
        # ``min_history`` counts the slots that must have been observed before
        # the first prediction.  The newest slot is the prediction query and is
        # excluded from the knowledge base, so the predictor itself needs one
        # fewer slot of knowledge.
        self.predictor = (
            predictor
            if predictor is not None
            else WorkloadPredictor(
                TimeSlotHistory(slot_length_ms=slot_length_ms),
                min_history=max(min_history - 1, 1),
            )
        )
        self.allocator = allocator if allocator is not None else IlpAllocator()
        self.decisions: List[ModelDecision] = []

    @property
    def history(self) -> TimeSlotHistory:
        """The slot history accumulated so far."""
        return self.predictor.history

    def groups(self) -> List[int]:
        """Acceleration groups known to the model (from its instance options)."""
        return sorted({option.acceleration_group for option in self.options})

    def observe_slot(self, slot: TimeSlot) -> None:
        """Record one completed time slot in the knowledge base."""
        self.predictor.observe(slot)

    def can_predict(self) -> bool:
        """Whether enough history has accumulated for a prediction."""
        return len(self.history) >= self.predictor.required_history(current_in_history=True)

    def decide(self, current_slot: Optional[TimeSlot] = None) -> ModelDecision:
        """Predict the next period's workload and compute the allocation plan.

        Parameters
        ----------
        current_slot:
            The slot describing the period that just ended; defaults to the
            latest slot in the history.
        """
        if current_slot is None:
            current_slot = self.history.latest()
        prediction = self.predictor.predict(current_slot)
        workloads = prediction.predicted_slot.workload_vector(self.groups())
        problem = AllocationProblem(
            options=self.options,
            group_workloads=workloads,
            instance_cap=self.instance_cap,
        )
        try:
            plan = self.allocator.allocate(problem)
        except AllocationError:
            # The predicted workload outgrew the account cap: saturate the
            # cap and let admission control shed the excess (the capped
            # utility-computing model of Section IV, not a simulation error).
            plan = best_effort_plan(problem)
        decision = ModelDecision(
            period_index=len(self.decisions),
            current_slot=current_slot,
            prediction=prediction,
            plan=plan,
        )
        self.decisions.append(decision)
        return decision
