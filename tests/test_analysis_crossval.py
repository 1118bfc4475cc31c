"""Tests for predictor cross-validation and the accuracy-vs-history curve."""

import numpy as np
import pytest

from repro.analysis.crossval import accuracy_vs_history_size, cross_validate_predictor
from repro.core.timeslots import TimeSlot, TimeSlotHistory
from repro.experiments.figure_prediction import synthesize_slot_history


def periodic_history(periods=4, period_length=6, base=20):
    """A perfectly periodic history: accuracy should be very high."""
    history = TimeSlotHistory()
    index = 0
    for _ in range(periods):
        for phase in range(period_length):
            count = base + 10 * phase
            history.append(TimeSlot.from_counts(index, {1: count, 2: phase}))
            index += 1
    return history


class TestCrossValidation:
    def test_perfectly_periodic_history_scores_high(self, rng):
        result = cross_validate_predictor(periodic_history(), folds=5, strategy="successor", rng=rng, min_index=7)
        assert result.mean_accuracy > 0.95

    def test_fold_count_respected(self, rng):
        result = cross_validate_predictor(periodic_history(), folds=5, rng=rng)
        assert len(result.fold_accuracies) == 5

    def test_per_slot_accuracies_cover_heldout_indices(self, rng):
        history = periodic_history(periods=3)
        result = cross_validate_predictor(history, folds=3, rng=rng, min_index=2)
        assert set(result.per_slot_accuracies) == set(range(2, len(history)))

    def test_accuracy_percentage_view(self, rng):
        result = cross_validate_predictor(periodic_history(), folds=4, strategy="successor", rng=rng, min_index=7)
        assert result.mean_accuracy_pct == pytest.approx(100.0 * result.mean_accuracy)

    def test_too_short_history_raises(self, rng):
        history = TimeSlotHistory()
        for index in range(3):
            history.append(TimeSlot.from_counts(index, {1: 1}))
        with pytest.raises(ValueError):
            cross_validate_predictor(history, folds=2, rng=rng)

    def test_too_few_folds_rejected(self, rng):
        with pytest.raises(ValueError):
            cross_validate_predictor(periodic_history(), folds=1, rng=rng)

    def test_empty_result_raises_on_aggregates(self):
        from repro.analysis.crossval import CrossValidationResult

        with pytest.raises(ValueError):
            CrossValidationResult(fold_accuracies=[]).mean_accuracy


class TestAccuracyVsHistorySize:
    def test_small_windows_are_worse_than_full_period_windows(self):
        rng = np.random.default_rng(5)
        history = synthesize_slot_history(rng, hours=48, population=80, period_slots=12)
        curve = accuracy_vs_history_size(history, sizes=(4, 16), strategy="successor")
        assert curve[16] > curve[4] + 0.2

    def test_sizes_beyond_history_are_skipped(self):
        history = periodic_history(periods=2, period_length=4)  # 8 slots
        curve = accuracy_vs_history_size(history, sizes=(2, 4, 50))
        assert 50 not in curve
        assert set(curve) <= {2, 4}

    def test_accuracies_bounded(self):
        history = periodic_history()
        curve = accuracy_vs_history_size(history, sizes=range(2, 12, 2))
        assert all(0.0 <= value <= 1.0 for value in curve.values())

    def test_nearest_and_successor_strategies_both_work(self):
        history = periodic_history()
        nearest = accuracy_vs_history_size(history, sizes=(6,), strategy="nearest")
        successor = accuracy_vs_history_size(history, sizes=(6,), strategy="successor")
        assert 6 in nearest and 6 in successor
