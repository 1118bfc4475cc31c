"""Workload prediction by nearest-historical-slot search (Section IV-B).

Given the current time slot ``t_h``, the predictor computes the knowledge base
``P = {p_k}`` of edit distances between ``t_h`` and every historical slot
``t_i ∈ T`` and approximates the expected workload of the next period by the
slot at minimum distance.

Two strategies are provided:

* ``"nearest"`` — the paper's literal formulation: the prediction *is* the
  closest historical slot ``t_k``.  Because ``t_k`` comes from history,
  "dramatically growing loads are only ever matched to the largest load seen
  in the near history", which makes allocation conservative (Section IV-B2).
* ``"successor"`` — the prediction is the slot that *followed* the closest
  match in history (``t_{k+1}``), i.e. classic nearest-neighbour time-series
  forecasting.  This is the natural reading of "predicts the next time slot"
  and is offered for the ablation study; when the closest match is the last
  slot of the history the strategy falls back to the match itself.

Prediction accuracy (the paper's headline 87.5 %) is measured as
``1 - normalised edit distance`` between the predicted and the realised slot,
averaged over the evaluation set; see :func:`prediction_accuracy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.distance import SlotDistanceIndex
from repro.core.timeslots import TimeSlot, TimeSlotHistory


@dataclass(frozen=True)
class PredictionOutcome:
    """The result of one prediction."""

    predicted_slot: TimeSlot
    matched_index: int
    distance: int
    distances: Dict[int, int] = field(default_factory=dict)


class WorkloadPredictor:
    """Edit-distance nearest-slot workload predictor."""

    STRATEGIES = ("nearest", "successor")

    def __init__(
        self,
        history: Optional[TimeSlotHistory] = None,
        *,
        strategy: str = "nearest",
        min_history: int = 2,
        exclude_current: bool = True,
    ) -> None:
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"strategy must be one of {self.STRATEGIES}, got {strategy!r}"
            )
        if min_history < 1:
            raise ValueError(f"min_history must be >= 1, got {min_history}")
        self.history = history if history is not None else TimeSlotHistory()
        self.strategy = strategy
        self.min_history = min_history
        # When the slot being predicted *from* is already the newest entry of
        # the history (the normal deployment situation: the just-finished slot
        # was logged before the control loop runs), it would trivially match
        # itself at distance zero and the model would degenerate to last-value
        # prediction.  ``exclude_current`` removes that entry from the
        # knowledge base for the duration of the query.
        self.exclude_current = exclude_current
        self._index = SlotDistanceIndex()
        self._indexed_history = self.history

    def observe(self, slot: TimeSlot) -> None:
        """Append a newly completed slot to the history."""
        self.history.append(slot)

    def _synced_index(self) -> SlotDistanceIndex:
        """The distance index, caught up with the current history.

        The history normally only grows, so new slots are appended to the
        index incrementally; if the history object was swapped out or shrank,
        the index is rebuilt from scratch.
        """
        if self._indexed_history is not self.history or len(self._index) > len(self.history):
            self._index = SlotDistanceIndex()
            self._indexed_history = self.history
        for position in range(len(self._index), len(self.history)):
            self._index.add(self.history[position])
        return self._index

    def required_history(self, current_in_history: bool = True) -> int:
        """Slots the history must hold before :meth:`predict` can run.

        When the query slot is itself the newest history entry (the normal
        deployment situation) and ``exclude_current`` is on, one extra slot is
        needed because the query slot is removed from the knowledge base.
        """
        extra = 1 if (current_in_history and self.exclude_current) else 0
        return self.min_history + extra

    def knowledge_base(
        self, current: TimeSlot, *, exclude_index: Optional[int] = None
    ) -> Dict[int, int]:
        """``P``: edit distance from ``current`` to every historical slot.

        The per-slot edit distances are computed in one vectorised batch over
        the whole history (see :class:`~repro.core.distance.SlotDistanceIndex`)
        rather than a Python loop — this runs every provisioning period.
        """
        batch = self._synced_index().distances_from(current)
        return {
            index: int(distance)
            for index, distance in enumerate(batch)
            if exclude_index is None or index != exclude_index
        }

    def predict(
        self, current: TimeSlot, *, exclude_index: Optional[int] = None
    ) -> PredictionOutcome:
        """Predict the workload of the next period given the current slot.

        Parameters
        ----------
        current:
            The slot describing the current (just finished) period.
        exclude_index:
            Optionally exclude one historical index from matching; the
            cross-validation harness uses this to keep a held-out slot from
            matching itself.

        Raises
        ------
        ValueError
            If the history holds fewer than ``min_history`` slots (the model
            "requires a bootstrap time before producing high accuracy
            results", Section VI-C2).
        """
        if (
            exclude_index is None
            and self.exclude_current
            and len(self.history) > 1
            and self.history[len(self.history) - 1] is current
        ):
            exclude_index = len(self.history) - 1
        usable = len(self.history) - (1 if exclude_index is not None else 0)
        if usable < self.min_history:
            raise ValueError(
                f"history has {usable} usable slots; at least {self.min_history} required"
            )
        distances = self.knowledge_base(current, exclude_index=exclude_index)
        matched_index = min(distances, key=lambda index: (distances[index], index))
        distance = distances[matched_index]
        if self.strategy == "successor" and matched_index + 1 < len(self.history) and (
            exclude_index is None or matched_index + 1 != exclude_index
        ):
            predicted = self.history[matched_index + 1]
        else:
            predicted = self.history[matched_index]
        return PredictionOutcome(
            predicted_slot=predicted,
            matched_index=matched_index,
            distance=distance,
            distances=distances,
        )


def prediction_accuracy(predicted: TimeSlot, actual: TimeSlot) -> float:
    """Accuracy of one prediction of the per-group *number of users*.

    Fig. 10a of the paper reports the "accuracy of the prediction model to
    estimate the number of users in each acceleration group", so the score
    compares the predicted and realised workload counts per group:

        accuracy = 1 - Σ_n |W̃_{a_n} - W_{a_n}| / Σ_n max(W̃_{a_n}, W_{a_n})

    which is 1.0 when every group's user count is predicted exactly and 0.0
    when the prediction shares no volume with the realised workload.
    """
    groups = sorted(set(predicted.group_ids) | set(actual.group_ids))
    absolute_error = 0.0
    normaliser = 0.0
    for group in groups:
        predicted_count = predicted.workload(group)
        actual_count = actual.workload(group)
        absolute_error += abs(predicted_count - actual_count)
        normaliser += max(predicted_count, actual_count)
    if normaliser == 0:
        return 1.0
    return max(0.0, 1.0 - absolute_error / normaliser)


# ---------------------------------------------------------------------------
# Baseline predictor used by the ablation benchmark
# ---------------------------------------------------------------------------


class MeanWorkloadPredictor:
    """Naive baseline: predict the historical mean per-group workload.

    User identities are discarded; the predicted slot is built from rounded
    mean counts, so the edit distance against the realised slot reflects only
    the workload magnitude.
    """

    def __init__(self, history: Optional[TimeSlotHistory] = None) -> None:
        self.history = history if history is not None else TimeSlotHistory()

    def predict(self, current: TimeSlot, **_: object) -> PredictionOutcome:
        if len(self.history) == 0:
            return PredictionOutcome(predicted_slot=current, matched_index=-1, distance=0)
        groups = sorted(set(self.history.group_ids()) | set(current.group_ids))
        # One slots × groups count matrix, reduced along the slot axis in a
        # single vectorised pass (np.rint rounds half-to-even like round()).
        counts = np.asarray(
            [[slot.workload(group) for group in groups] for slot in self.history],
            dtype=float,
        )
        rounded = np.rint(counts.mean(axis=0)).astype(int)
        means: Dict[int, int] = dict(zip(groups, (int(value) for value in rounded)))
        predicted = TimeSlot.from_counts(index=current.index, counts=means)
        return PredictionOutcome(predicted_slot=predicted, matched_index=-1, distance=0)
