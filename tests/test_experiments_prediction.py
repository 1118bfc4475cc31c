"""Tests for the Fig. 10a prediction-accuracy experiment."""

import numpy as np
import pytest

from repro.experiments.figure_prediction import (
    run_fig10a_prediction_accuracy,
    synthesize_slot_history,
)


@pytest.fixture(scope="module")
def result():
    return run_fig10a_prediction_accuracy(seed=0)


class TestSyntheticHistory:
    def test_history_length_and_groups(self, rng):
        history = synthesize_slot_history(rng, hours=24, population=50, groups=(1, 2, 3))
        assert len(history) == 24
        assert history.group_ids() == [1, 2, 3]

    def test_workload_repeats_across_cycles(self, rng):
        history = synthesize_slot_history(rng, hours=36, population=80, period_slots=12, noise=0.03)
        totals = [sum(slot.workload_vector().values()) for slot in history]
        # The same phase one cycle apart is much more similar than adjacent phases.
        same_phase_diff = np.mean([abs(totals[i] - totals[i + 12]) for i in range(12)])
        adjacent_diff = np.mean([abs(totals[i] - totals[i + 1]) for i in range(23)])
        assert same_phase_diff < adjacent_diff

    def test_later_phases_have_more_promoted_users(self, rng):
        history = synthesize_slot_history(rng, hours=12, population=100, period_slots=12)
        early, late = history[1], history[10]
        early_high_share = early.workload(3) / max(sum(early.workload_vector().values()), 1)
        late_high_share = late.workload(3) / max(sum(late.workload_vector().values()), 1)
        assert late_high_share > early_high_share

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            synthesize_slot_history(rng, hours=1)
        with pytest.raises(ValueError):
            synthesize_slot_history(rng, population=0)
        with pytest.raises(ValueError):
            synthesize_slot_history(rng, period_slots=1)
        with pytest.raises(ValueError):
            synthesize_slot_history(rng, noise=-0.1)

    def test_deterministic_per_seed(self):
        a = synthesize_slot_history(np.random.default_rng(3), hours=10)
        b = synthesize_slot_history(np.random.default_rng(3), hours=10)
        assert all(x.groups == y.groups for x, y in zip(a, b))


class TestFig10aResult:
    def test_cross_validated_accuracy_matches_paper(self, result):
        """The paper reports ≈87.5 % accuracy; we accept ±7 points."""
        assert result.cross_validation.mean_accuracy_pct == pytest.approx(87.5, abs=7.0)

    def test_accuracy_improves_with_history_size(self, result):
        """Fig. 10a: a bootstrap phase with low accuracy, then a high plateau."""
        curve = result.accuracy_by_history_size
        assert result.bootstrap_accuracy_pct < 55.0
        assert result.final_accuracy_pct > 75.0
        assert result.final_accuracy_pct > result.bootstrap_accuracy_pct + 20.0
        assert curve[max(curve)] > curve[min(curve)]

    def test_rows_include_cv_and_paper_reference(self, result):
        rows = result.rows()
        assert any("ten_fold_cv_accuracy_pct" in row for row in rows)
        assert rows[-1]["paper_accuracy_pct"] == 87.5

    def test_nearest_strategy_is_more_conservative(self):
        nearest = run_fig10a_prediction_accuracy(seed=0, strategy="nearest")
        successor = run_fig10a_prediction_accuracy(seed=0, strategy="successor")
        assert successor.final_accuracy_pct >= nearest.final_accuracy_pct
