"""The paper's primary contribution: the adaptive model for code acceleration.

The model has two halves (Section IV of the paper):

* **Workload prediction** (:mod:`repro.core.prediction`) — the request history
  is sliced into equal-length time slots; each slot records, per acceleration
  group, the set of users that offloaded during the slot.  Given the current
  slot, the predictor finds the historical slot at minimum *edit distance*
  (:mod:`repro.core.distance`) and uses it to approximate the workload of the
  next period.
* **Dynamic resource allocation** (:mod:`repro.core.allocation`) — given the
  predicted per-group workload, an integer linear program chooses the cheapest
  combination of instance types whose benchmarked capacities cover the demand
  of every acceleration group, subject to the cloud account's instance cap.

:mod:`repro.core.acceleration` implements the performance-based
characterization that turns a catalog of instance types into acceleration
groups (Section IV-C1 and VI-A), and :mod:`repro.core.model` combines the
pieces into the :class:`~repro.core.model.AdaptiveModel` that the
SDN-accelerator invokes at the end of each provisioning hour.
"""

from repro.core.acceleration import (
    AccelerationGroup,
    AccelerationLevelCharacterization,
    characterize_instances,
)
from repro.core.allocation import (
    AllocationPlan,
    AllocationProblem,
    GreedyAllocator,
    IlpAllocator,
    InstanceOption,
)
from repro.core.distance import group_edit_distance, slot_edit_distance
from repro.core.model import AdaptiveModel, ModelDecision
from repro.core.prediction import (
    PredictionOutcome,
    WorkloadPredictor,
    prediction_accuracy,
)
from repro.core.timeslots import TimeSlot, TimeSlotHistory

__all__ = [
    "AccelerationGroup",
    "AccelerationLevelCharacterization",
    "AdaptiveModel",
    "AllocationPlan",
    "AllocationProblem",
    "GreedyAllocator",
    "IlpAllocator",
    "InstanceOption",
    "ModelDecision",
    "PredictionOutcome",
    "TimeSlot",
    "TimeSlotHistory",
    "WorkloadPredictor",
    "characterize_instances",
    "group_edit_distance",
    "prediction_accuracy",
    "slot_edit_distance",
]
