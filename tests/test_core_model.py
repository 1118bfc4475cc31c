"""Tests for the combined adaptive model."""

import numpy as np
import pytest

from repro.cloud.backend import BackendPool
from repro.cloud.provisioner import Provisioner
from repro.core.allocation import InstanceOption
from repro.core.model import AdaptiveModel
from repro.core.prediction import prediction_accuracy
from repro.core.timeslots import TimeSlot
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.clock import MILLISECONDS_PER_HOUR

OPTIONS = [
    InstanceOption("t2.nano", acceleration_group=1, cost_per_hour=0.0063, capacity=10.0),
    InstanceOption("t2.large", acceleration_group=2, cost_per_hour=0.101, capacity=40.0),
    InstanceOption("m4.4xlarge", acceleration_group=3, cost_per_hour=0.888, capacity=150.0),
]


def slot(index, counts):
    return TimeSlot.from_counts(index, counts)


class TestConstruction:
    def test_requires_options(self):
        with pytest.raises(ValueError):
            AdaptiveModel([])

    def test_rejects_bad_slot_length(self):
        with pytest.raises(ValueError):
            AdaptiveModel(OPTIONS, slot_length_ms=0.0)

    def test_groups_derived_from_options(self):
        assert AdaptiveModel(OPTIONS).groups() == [1, 2, 3]


class TestObserveAndDecide:
    def test_cannot_predict_before_min_history(self):
        model = AdaptiveModel(OPTIONS, min_history=2)
        model.observe_slot(slot(0, {1: 5}))
        assert not model.can_predict()
        model.observe_slot(slot(1, {1: 7}))
        assert model.can_predict()

    def test_decide_produces_feasible_plan_for_predicted_workload(self):
        model = AdaptiveModel(OPTIONS)
        model.observe_slot(slot(0, {1: 12, 2: 5, 3: 0}))
        model.observe_slot(slot(1, {1: 18, 2: 9, 3: 2}))
        decision = model.decide()
        assert decision.plan.feasible
        for group, workload in decision.predicted_workloads.items():
            if workload > 0:
                assert decision.plan.group_capacities[group] > workload

    def test_decide_uses_latest_slot_by_default(self):
        model = AdaptiveModel(OPTIONS)
        model.observe_slot(slot(0, {1: 5}))
        model.observe_slot(slot(1, {1: 50}))
        decision = model.decide()
        assert decision.current_slot is model.history.latest()

    def test_decisions_are_recorded_in_order(self):
        model = AdaptiveModel(OPTIONS)
        model.observe_slot(slot(0, {1: 3}))
        model.observe_slot(slot(1, {1: 4}))
        first = model.decide()
        second = model.decide()
        assert [first.period_index, second.period_index] == [0, 1]
        assert model.decisions == [first, second]

    def test_instance_cap_propagates_to_plan(self):
        model = AdaptiveModel(OPTIONS, instance_cap=3)
        model.observe_slot(slot(0, {1: 25}))
        model.observe_slot(slot(1, {1: 25}))
        decision = model.decide()
        assert decision.plan.total_instances <= 3

    def test_evaluate_decision_scores_against_realised_slot(self):
        model = AdaptiveModel(OPTIONS)
        model.observe_slot(slot(0, {1: 10}))
        model.observe_slot(slot(1, {1: 10}))
        decision = model.decide()
        realised = slot(2, {1: decision.predicted_workloads[1]})
        perfect = prediction_accuracy(decision.prediction.predicted_slot, realised)
        assert perfect == 1.0


class TestTraceWindowObservation:
    """The slot step every executor calls records one slot in the model."""

    @staticmethod
    def run_slot(engine, catalog, routed, uids, observed):
        model = AdaptiveModel(OPTIONS)
        scaler = Autoscaler(model, Provisioner(engine, catalog), BackendPool())
        scaler.run_slot(
            np.asarray(routed, dtype=np.int64),
            np.asarray(uids, dtype=np.int64),
            np.asarray(observed, dtype=bool),
            MILLISECONDS_PER_HOUR,
        )
        return model

    def test_run_slot_builds_slot_from_served_requests(self, engine, catalog):
        model = self.run_slot(engine, catalog, [1, 1, 2], [1, 2, 3], [True, True, True])
        observed = model.history.latest()
        assert observed.workload(1) == 2
        assert observed.workload(2) == 1
        assert observed.workload(3) == 0
        assert len(model.history) == 1

    def test_window_outside_records_is_empty_slot(self, engine, catalog):
        # The one delivered request arrived before the window: not observed.
        model = self.run_slot(engine, catalog, [1], [1], [False])
        assert sum(model.history.latest().workload_vector().values()) == 0


class TestRunOverHistory:
    def test_one_decision_per_slot_after_warmup(self):
        model = AdaptiveModel(OPTIONS)
        decisions = []
        for index in range(6):
            current = slot(index, {1: 5 + index, 2: index})
            model.observe_slot(current)
            if model.can_predict():
                decisions.append(model.decide(current))
        assert len(decisions) == 5  # warmup of min_history=2 skips the first slot
        assert len(model.history) == 6
