"""Cross-validation of the workload predictor (Fig. 10a).

The paper determines the accuracy of the prediction model with a 10-fold
cross-validation over history traces produced by a 16-hour workload, and
reports ≈87.5 % accuracy once enough history is available, with a clear
bootstrap phase at small history sizes.

The harness here treats each time slot as one example: the slot is predicted
from the remaining history (with itself excluded from matching) and scored
with :func:`repro.core.prediction.prediction_accuracy` (1 − normalised edit
distance against the realised slot).  Folds partition the slots; the reported
accuracy of a fold is the mean accuracy of its held-out slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.prediction import WorkloadPredictor, prediction_accuracy
from repro.core.timeslots import TimeSlotHistory


@dataclass
class CrossValidationResult:
    """Per-fold and aggregate accuracy of the predictor."""

    fold_accuracies: List[float]
    per_slot_accuracies: Dict[int, float] = field(default_factory=dict)

    @property
    def mean_accuracy(self) -> float:
        if not self.fold_accuracies:
            raise ValueError("no folds evaluated")
        return float(np.mean(self.fold_accuracies))

    @property
    def mean_accuracy_pct(self) -> float:
        """Mean accuracy as a percentage (the paper's 87.5 % figure)."""
        return 100.0 * self.mean_accuracy


def _predict_slot(
    history: TimeSlotHistory, index: int, *, strategy: str, window: Optional[int] = None
) -> float:
    """Accuracy of predicting slot ``index`` from the preceding history.

    The slot at ``index`` is predicted from the slot at ``index - 1`` (the
    "current" slot) using only slots strictly *before the current one* as the
    knowledge base — exactly the situation the deployed system faces at the
    end of each period: the just-finished slot is the query, the older history
    is what it is matched against.  ``window`` optionally restricts the
    knowledge base to the most recent ``window`` slots.
    """
    end = index - 1
    start = 0 if window is None else max(0, end - window)
    knowledge = TimeSlotHistory(
        history.slots[start:end], slot_length_ms=history.slot_length_ms
    )
    if len(knowledge) == 0:
        knowledge = TimeSlotHistory(
            history.slots[:index], slot_length_ms=history.slot_length_ms
        )
    predictor = WorkloadPredictor(knowledge, strategy=strategy, min_history=1)
    current = history[index - 1]
    outcome = predictor.predict(current)
    return prediction_accuracy(outcome.predicted_slot, history[index])


def cross_validate_predictor(
    history: TimeSlotHistory,
    *,
    folds: int = 10,
    strategy: str = "nearest",
    rng: Optional[np.random.Generator] = None,
    min_index: int = 2,
) -> CrossValidationResult:
    """k-fold cross-validation of the predictor over a slot history.

    Slots (from ``min_index`` on, so a minimal bootstrap history always
    exists) are shuffled and partitioned into ``folds`` folds; each held-out
    slot is predicted from the history that precedes it and scored against
    the realised workload.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if len(history) <= min_index + 1:
        raise ValueError(
            f"history of {len(history)} slots is too short for cross-validation"
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    candidate_indices = np.arange(min_index, len(history))
    rng.shuffle(candidate_indices)
    fold_assignments = np.array_split(candidate_indices, folds)

    fold_accuracies: List[float] = []
    per_slot: Dict[int, float] = {}
    for fold in fold_assignments:
        if len(fold) == 0:
            continue
        accuracies = []
        for index in fold:
            accuracy = _predict_slot(history, int(index), strategy=strategy)
            accuracies.append(accuracy)
            per_slot[int(index)] = accuracy
        fold_accuracies.append(float(np.mean(accuracies)))
    return CrossValidationResult(fold_accuracies=fold_accuracies, per_slot_accuracies=per_slot)


def accuracy_vs_history_size(
    history: TimeSlotHistory,
    *,
    sizes: Sequence[int] = tuple(range(2, 21, 2)),
    strategy: str = "nearest",
) -> Dict[int, float]:
    """Accuracy as a function of the amount of history available (Fig. 10a).

    For each requested ``size`` the predictor's knowledge base is restricted
    to the ``size`` slots preceding the current one (a sliding window) and the
    predictor is evaluated walk-forward on every slot it can predict; the mean
    accuracy is reported.  Sizes larger than the history are skipped.
    """
    results: Dict[int, float] = {}
    for size in sizes:
        if size < 2 or size >= len(history):
            continue
        accuracies: List[float] = []
        for index in range(size + 1, len(history)):
            accuracies.append(
                _predict_slot(history, index, strategy=strategy, window=size)
            )
        if accuracies:
            results[size] = float(np.mean(accuracies))
    return results
