"""Tests for the predictive and reactive autoscalers."""

import numpy as np
import pytest

from repro.cloud.backend import BackendPool
from repro.cloud.provisioner import Provisioner
from repro.core.allocation import InstanceOption
from repro.core.model import AdaptiveModel
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.clock import MILLISECONDS_PER_HOUR

OPTIONS = [
    InstanceOption("t2.nano", acceleration_group=1, cost_per_hour=0.0063, capacity=10.0),
    InstanceOption("t2.large", acceleration_group=2, cost_per_hour=0.101, capacity=40.0),
]
LEVEL_FOR_TYPE = {"t2.nano": 1, "t2.large": 2}


def make_autoscaler(engine, catalog, minimum_per_group=0, instance_cap=20):
    model = AdaptiveModel(OPTIONS, instance_cap=instance_cap)
    provisioner = Provisioner(engine, catalog, instance_cap=instance_cap)
    backend = BackendPool()
    scaler = Autoscaler(model, provisioner, backend, level_for_type=LEVEL_FOR_TYPE,
                 minimum_per_group=minimum_per_group)
    return scaler, model, provisioner, backend


def run_hour(scaler, hour, group_users):
    """Run the slot step on one hour in which each (group, user) pair was served."""
    pairs = [(group, user) for group, users in group_users.items() for user in users]
    routed = np.asarray([group for group, _ in pairs], dtype=np.int64)
    uids = np.asarray([user for _, user in pairs], dtype=np.int64)
    observed = np.ones(len(pairs), dtype=bool)
    return scaler.run_slot(routed, uids, observed, (hour + 1) * MILLISECONDS_PER_HOUR)


class TestAutoscaler:
    def test_bootstrap_period_provisions_for_observed_workload(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog)
        action = run_hour(scaler, 0, {1: range(15)})
        # 15 users in group 1 need 2 nano instances (capacity 10 each).
        assert action.decision is None  # bootstrap: no prediction yet
        assert provisioner.running_by_type().get("t2.nano", 0) == 2
        assert backend.instances_for_level(1)

    def test_predictive_period_uses_model_decision(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog)
        run_hour(scaler, 0, {1: range(15)})
        action = run_hour(scaler, 1, {1: range(25), 2: range(100, 105)})
        assert action.decision is not None
        assert action.plan.feasible
        # Both groups seen in history, so both have capacity after scaling.
        assert provisioner.running_by_type().get("t2.nano", 0) >= 1

    def test_scale_down_terminates_surplus_instances(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog)
        run_hour(scaler, 0, {1: range(40)})   # needs 5 nanos
        heavy = provisioner.running_by_type().get("t2.nano", 0)
        run_hour(scaler, 1, {1: range(5)})    # quiet hour
        run_hour(scaler, 2, {1: range(5)})    # quiet again: history now contains a similar quiet hour
        light = provisioner.running_by_type().get("t2.nano", 0)
        assert heavy > light
        assert any(action.terminated for action in scaler.actions)

    def test_minimum_per_group_keeps_groups_alive(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog, minimum_per_group=1)
        run_hour(scaler, 0, {1: range(3)})  # group 2 has no workload at all
        assert backend.instances_for_level(2), "group 2 should keep a minimum instance"

    def test_actions_recorded_in_order(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog)
        run_hour(scaler, 0, {1: range(5)})
        run_hour(scaler, 1, {1: range(6)})
        assert [action.period_index for action in scaler.actions] == [0, 1]

    def test_instance_cap_limits_launches(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog, instance_cap=3)
        run_hour(scaler, 0, {1: range(25)})  # would need 3+ nanos; capped at 3 total
        assert provisioner.running_count <= 3

    def test_invalid_minimum_per_group(self, engine, catalog):
        with pytest.raises(ValueError):
            make_autoscaler(engine, catalog, minimum_per_group=-1)
