"""Figure 10a: prediction accuracy of the adaptive model.

The paper evaluates the workload predictor with a 10-fold cross-validation
over history traces produced by a 16-hour workload driven by the smartphone
usage study, and reports that after a bootstrap phase the model reaches
≈87.5 % accuracy; Fig. 10a shows the accuracy as a function of the amount of
data available for learning (x-axis 2–20).

The per-user request traces of the original 16-hour run are not available, so
this experiment synthesises a slot history with the structure the real system
produces — a diurnally recurring population of users whose acceleration-group
membership drifts upward during the day (promotions) and resets overnight,
plus user churn noise — and evaluates the same two quantities: the
accuracy-vs-history-size curve and the 10-fold cross-validated accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.crossval import (
    CrossValidationResult,
    accuracy_vs_history_size,
    cross_validate_predictor,
)
from repro.core.timeslots import TimeSlotHistory
from repro.simulation.randomness import RandomStreams


def _phase_activity(phase: float) -> float:
    """Fraction of the user population active at a given phase of the cycle.

    The phase runs over ``[0, 1)`` within one activity cycle (one "day" of
    the workload).  The profile has a quiet start, a morning ramp, a midday
    dip and a strong evening peak, so consecutive slots differ noticeably and
    only slots at the same phase of a previous cycle look alike — the
    structure that makes history-based matching pay off.
    """
    quiet = 0.08
    morning = 0.75 * np.exp(-((phase - 0.25) ** 2) / (2 * 0.07 ** 2))
    evening = 0.95 * np.exp(-((phase - 0.72) ** 2) / (2 * 0.10 ** 2))
    return float(min(quiet + morning + evening, 0.95))


def _phase_group_shares(phase: float, group_count: int) -> np.ndarray:
    """Distribution of active users over acceleration groups at a given phase.

    Early in the cycle almost everyone sits in the lowest group; promotions
    accumulate as the cycle progresses, shifting mass to the higher groups —
    the same drift the real system exhibits (Fig. 10c).
    """
    drift = 0.15 + 0.7 * phase
    weights = np.array(
        [np.exp(-((g / max(group_count - 1, 1)) - drift) ** 2 / (2 * 0.35 ** 2)) for g in range(group_count)]
    )
    return weights / weights.sum()


def synthesize_slot_history(
    rng: np.random.Generator,
    *,
    hours: int = 20,
    population: int = 100,
    groups: Sequence[int] = (1, 2, 3),
    period_slots: int = 12,
    noise: float = 0.05,
    habit_width: float = 0.18,
    habit_noise: float = 0.35,
) -> TimeSlotHistory:
    """Synthesise a slot history with a strongly recurring activity cycle.

    Every user has a personal *habit*: a preferred phase of the activity cycle
    (most people use their phone at roughly the same times every day).  In
    each slot the users with the strongest affinity for the current phase are
    the active ones, so the same phase of two different cycles contains nearly
    the same users while consecutive slots within one cycle differ
    substantially — exactly the structure that rewards history-based matching
    and produces the Fig. 10a bootstrap-then-plateau curve.

    Parameters
    ----------
    hours:
        Number of slots to generate.
    period_slots:
        Length of the activity cycle in slots.  A knowledge base shorter than
        one cycle can only find poor matches (the bootstrap phase); one that
        covers at least a full cycle finds the same phase again.
    noise:
        Relative standard deviation of the per-slot activity level across
        cycles (cycle-to-cycle workload variation).
    habit_width:
        Width (in phase units) of each user's preferred activity window.
    habit_noise:
        Per-slot log-normal jitter applied to user affinities; higher values
        make the active-user set (and hence the workload) less repeatable.
    """
    if hours < 3:
        raise ValueError(f"hours must be >= 3, got {hours}")
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    if period_slots < 2:
        raise ValueError(f"period_slots must be >= 2, got {period_slots}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    if habit_width <= 0:
        raise ValueError(f"habit_width must be positive, got {habit_width}")
    if habit_noise < 0:
        raise ValueError(f"habit_noise must be >= 0, got {habit_noise}")
    groups = sorted(groups)
    group_count = len(groups)
    # Per-user stable traits: preferred phase of the cycle and the rank that
    # decides which acceleration group they end up in when active.
    habit_center = rng.uniform(0.0, 1.0, size=population)
    group_rank = np.argsort(np.argsort(rng.uniform(0.0, 1.0, size=population)))

    history = TimeSlotHistory()
    for hour in range(hours):
        phase = (hour % period_slots) / period_slots
        activity = _phase_activity(phase) * (1.0 + noise * rng.standard_normal())
        target_active = int(np.clip(round(population * activity), 1, population))
        # Circular distance between each user's habit and the current phase.
        distance = np.abs(habit_center - phase)
        distance = np.minimum(distance, 1.0 - distance)
        affinity = np.exp(-(distance ** 2) / (2 * habit_width ** 2))
        affinity = affinity * np.exp(habit_noise * rng.standard_normal(population))
        active_users = np.argsort(-affinity)[:target_active]

        # Split the active users over groups according to the phase shares;
        # the per-user rank keeps assignments consistent across slots.
        shares = _phase_group_shares(phase, group_count)
        counts = np.floor(shares * len(active_users)).astype(int)
        while counts.sum() < len(active_users):
            counts[int(np.argmax(shares))] += 1
        slot_groups: Dict[int, set] = {group: set() for group in groups}
        ranked = sorted(active_users.tolist(), key=lambda user: int(group_rank[user]))
        cursor = 0
        for group_index, group in enumerate(groups):
            members = ranked[cursor: cursor + counts[group_index]]
            cursor += counts[group_index]
            slot_groups[group].update(int(member) for member in members)
        history.append_user_sets(slot_groups)
    return history


@dataclass
class PredictionAccuracyResult:
    """Fig. 10a output: accuracy curve plus the cross-validated accuracy."""

    accuracy_by_history_size: Dict[int, float]
    cross_validation: CrossValidationResult
    paper_accuracy_pct: float = 87.5

    @property
    def final_accuracy_pct(self) -> float:
        """Accuracy with the full history available, in percent."""
        if not self.accuracy_by_history_size:
            raise ValueError("no accuracy measurements available")
        largest = max(self.accuracy_by_history_size)
        return 100.0 * self.accuracy_by_history_size[largest]

    @property
    def bootstrap_accuracy_pct(self) -> float:
        """Accuracy with the smallest evaluated history, in percent."""
        if not self.accuracy_by_history_size:
            raise ValueError("no accuracy measurements available")
        smallest = min(self.accuracy_by_history_size)
        return 100.0 * self.accuracy_by_history_size[smallest]

    def rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = [
            {
                "history_size": size,
                "accuracy_pct": round(100.0 * accuracy, 1),
            }
            for size, accuracy in sorted(self.accuracy_by_history_size.items())
        ]
        rows.append(
            {
                "ten_fold_cv_accuracy_pct": round(self.cross_validation.mean_accuracy_pct, 1),
                "paper_accuracy_pct": self.paper_accuracy_pct,
            }
        )
        return rows


def run_fig10a_prediction_accuracy(
    *,
    seed: int = 0,
    hours: int = 48,
    population: int = 100,
    folds: int = 10,
    sizes: Sequence[int] = tuple(range(2, 21, 2)),
    strategy: str = "successor",
    history: Optional[TimeSlotHistory] = None,
) -> PredictionAccuracyResult:
    """Reproduce the Fig. 10a accuracy curve and the 87.5 % headline number.

    ``hours`` defaults to 48 so the history spans several activity cycles
    (the paper's 16-hour run covers several of its shorter periods; the
    accuracy saturates once at least one full cycle is available, which is
    what the figure shows).  ``strategy`` defaults to ``"successor"`` — the
    forecasting reading of the paper's nearest-slot approximation (predict
    the slot that followed the best historical match); the paper-literal
    ``"nearest"`` strategy is available for the ablation comparison.
    """
    streams = RandomStreams(seed)
    period_slots = 12
    if history is None:
        history = synthesize_slot_history(
            streams.stream("prediction-history"),
            hours=hours,
            population=population,
            period_slots=period_slots,
        )
    curve = accuracy_vs_history_size(history, sizes=sizes, strategy=strategy)
    # The paper's 87.5 % figure is the post-bootstrap accuracy, so the 10-fold
    # cross-validation holds out only slots that already have at least one
    # full activity cycle of history behind them.
    cross_validation = cross_validate_predictor(
        history,
        folds=folds,
        strategy=strategy,
        rng=streams.stream("prediction-folds"),
        min_index=min(period_slots + 1, max(len(history) - folds, 2)),
    )
    return PredictionAccuracyResult(
        accuracy_by_history_size=curve,
        cross_validation=cross_validation,
    )
