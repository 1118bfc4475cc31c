"""Tests for the edit-distance workload predictor."""

import pytest

from repro.core.prediction import (
    MeanWorkloadPredictor,
    WorkloadPredictor,
    prediction_accuracy,
)
from repro.core.timeslots import TimeSlot, TimeSlotHistory


def slot(index, groups):
    return TimeSlot.from_user_sets(index, groups)


@pytest.fixture
def history():
    history = TimeSlotHistory()
    history.append(slot(0, {1: [1, 2, 3], 2: []}))        # light, all in group 1
    history.append(slot(1, {1: [1, 2, 3, 4, 5], 2: [6]}))  # medium
    history.append(slot(2, {1: [1, 2], 2: [6, 7, 8]}))     # promoted-heavy
    return history


class TestWorkloadPredictor:
    def test_requires_minimum_history(self):
        predictor = WorkloadPredictor(min_history=2)
        predictor.observe(slot(0, {1: [1]}))
        with pytest.raises(ValueError):
            predictor.predict(slot(1, {1: [1]}))

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            WorkloadPredictor(strategy="magic")

    def test_invalid_min_history_rejected(self):
        with pytest.raises(ValueError):
            WorkloadPredictor(min_history=0)

    def test_knowledge_base_contains_distance_to_every_slot(self, history):
        predictor = WorkloadPredictor(history)
        current = slot(3, {1: [1, 2, 3], 2: []})
        distances = predictor.knowledge_base(current)
        assert set(distances) == {0, 1, 2}
        assert distances[0] == 0  # identical to slot 0

    def test_nearest_strategy_returns_closest_slot(self, history):
        predictor = WorkloadPredictor(history, strategy="nearest")
        current = slot(3, {1: [1, 2, 3], 2: []})
        outcome = predictor.predict(current)
        assert outcome.matched_index == 0
        assert outcome.distance == 0
        assert outcome.predicted_slot is history[0]

    def test_successor_strategy_returns_slot_after_match(self, history):
        predictor = WorkloadPredictor(history, strategy="successor")
        current = slot(3, {1: [1, 2, 3], 2: []})
        outcome = predictor.predict(current)
        assert outcome.matched_index == 0
        assert outcome.predicted_slot is history[1]

    def test_successor_falls_back_when_match_is_last_slot(self, history):
        predictor = WorkloadPredictor(history, strategy="successor")
        current = slot(3, {1: [1, 2], 2: [6, 7, 8]})  # identical to the last slot
        outcome = predictor.predict(current)
        assert outcome.matched_index == 2
        assert outcome.predicted_slot is history[2]

    def test_exclude_index_prevents_self_matching(self, history):
        predictor = WorkloadPredictor(history, strategy="nearest")
        current = history[1]
        outcome = predictor.predict(current, exclude_index=1)
        assert outcome.matched_index != 1

    def test_ties_break_toward_earliest_slot(self):
        history = TimeSlotHistory()
        history.append(slot(0, {1: [1]}))
        history.append(slot(1, {1: [1]}))
        predictor = WorkloadPredictor(history, strategy="nearest")
        outcome = predictor.predict(slot(2, {1: [1]}))
        assert outcome.matched_index == 0

    def test_conservative_on_unseen_growth(self, history):
        """A dramatically growing load can only match the largest load in history."""
        predictor = WorkloadPredictor(history, strategy="nearest")
        huge = slot(3, {1: list(range(100)), 2: list(range(100, 150))})
        outcome = predictor.predict(huge)
        def total(s):
            return sum(s.workload_vector().values())

        assert total(outcome.predicted_slot) <= max(total(s) for s in history)

    def test_predict_next_workloads_returns_vector(self, history):
        predictor = WorkloadPredictor(history)
        workloads = predictor.predict(slot(3, {1: [1, 2, 3], 2: []})).predicted_slot.workload_vector([1, 2])
        assert workloads == {1: 3, 2: 0}

    def test_observe_appends_to_history(self):
        predictor = WorkloadPredictor()
        predictor.observe(slot(0, {1: [1]}))
        assert len(predictor.history) == 1


class TestAccuracyMetrics:
    def test_exact_count_prediction_scores_one(self):
        predicted = slot(0, {1: [10, 11], 2: [12]})
        actual = slot(1, {1: [1, 2], 2: [3]})
        # Same counts per group, different user identities.
        assert prediction_accuracy(predicted, actual) == 1.0

    def test_completely_wrong_counts_score_zero(self):
        predicted = slot(0, {1: [1, 2, 3]})
        actual = slot(1, {2: [4, 5]})
        assert prediction_accuracy(predicted, actual) == 0.0

    def test_partial_count_error(self):
        predicted = slot(0, {1: list(range(8))})
        actual = slot(1, {1: list(range(10))})
        assert prediction_accuracy(predicted, actual) == pytest.approx(0.8)

    def test_empty_slots_are_perfectly_predicted(self):
        assert prediction_accuracy(slot(0, {1: []}), slot(1, {1: []})) == 1.0

    def test_accuracy_bounded(self):
        predicted = slot(0, {1: list(range(50))})
        actual = slot(1, {1: [1]})
        assert 0.0 <= prediction_accuracy(predicted, actual) <= 1.0


class TestBaselinePredictors:
    def test_mean_predictor_averages_counts(self, history):
        predictor = MeanWorkloadPredictor(history)
        outcome = predictor.predict(slot(3, {1: [], 2: []}))
        # Means over history: group 1 -> (3+5+2)/3 = 3.33 -> 3, group 2 -> (0+1+3)/3 = 1.33 -> 1.
        assert outcome.predicted_slot.workload(1) == 3
        assert outcome.predicted_slot.workload(2) == 1

    def test_mean_predictor_with_empty_history_returns_current(self):
        predictor = MeanWorkloadPredictor()
        current = slot(0, {1: [1]})
        assert predictor.predict(current).predicted_slot is current
