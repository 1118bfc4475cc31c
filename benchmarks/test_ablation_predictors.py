"""Ablation — edit-distance nearest-slot prediction vs naive predictors.

The paper's predictor matches the current slot against the whole history with
an edit distance.  This bench compares, on the same synthetic multi-day
workload used for Fig. 10a, the forecasting accuracy of:

* the paper's predictor in its two readings ("nearest" and "successor"),
* a last-value predictor (tomorrow looks like today), and
* a mean-history predictor.
"""

import numpy as np
from conftest import print_rows, run_once

from repro.analysis.crossval import accuracy_vs_history_size
from repro.core.prediction import (
    MeanWorkloadPredictor,
    prediction_accuracy,
)
from repro.core.timeslots import TimeSlotHistory
from repro.experiments.figure_prediction import synthesize_slot_history
from repro.simulation.randomness import RandomStreams

WINDOW = 24  # slots of knowledge available to every predictor


def _evaluate():
    streams = RandomStreams(0)
    history = synthesize_slot_history(
        streams.stream("ablation-history"), hours=60, population=100, period_slots=12
    )

    # Paper predictor, both strategies, via the shared walk-forward harness.
    nearest = accuracy_vs_history_size(history, sizes=(WINDOW,), strategy="nearest")[WINDOW]
    successor = accuracy_vs_history_size(history, sizes=(WINDOW,), strategy="successor")[WINDOW]

    # Naive baselines on exactly the same walk-forward splits.
    last_value_scores = []
    mean_scores = []
    for index in range(WINDOW + 1, len(history)):
        current, actual = history[index - 1], history[index]
        last_value_scores.append(prediction_accuracy(current, actual))
        knowledge = TimeSlotHistory(history.slots[index - 1 - WINDOW: index - 1])
        mean_predictor = MeanWorkloadPredictor(knowledge)
        mean_scores.append(
            prediction_accuracy(mean_predictor.predict(current).predicted_slot, actual)
        )
    return {
        "edit-distance (successor)": successor,
        "edit-distance (nearest)": nearest,
        "last-value": float(np.mean(last_value_scores)),
        "mean-history": float(np.mean(mean_scores)),
    }


def test_predictor_ablation(benchmark):
    accuracies = run_once(benchmark, _evaluate)

    # The paper's predictor (in its forecasting reading) beats both naive
    # baselines on a workload with recurring structure.
    assert accuracies["edit-distance (successor)"] > accuracies["last-value"] + 0.05
    assert accuracies["edit-distance (successor)"] > accuracies["mean-history"] + 0.05
    # And the conservative "nearest" reading is no better than the successor one.
    assert accuracies["edit-distance (successor)"] >= accuracies["edit-distance (nearest)"]

    print_rows(
        "Ablation: workload prediction accuracy by predictor",
        [{"predictor": name, "accuracy_pct": round(100.0 * value, 1)} for name, value in accuracies.items()],
    )
