"""Tests for the predictive and reactive autoscalers."""

import pytest

from repro.cloud.backend import BackendPool
from repro.cloud.provisioner import Provisioner
from repro.core.allocation import InstanceOption
from repro.core.model import AdaptiveModel
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.clock import MILLISECONDS_PER_HOUR
from repro.workload.traces import TraceLog

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


def log_hour(log, hour, group_users):
    """Append one request per (group, user) pair in the given hour."""
    base = hour * MILLISECONDS_PER_HOUR
    for group, users in group_users.items():
        for offset, user in enumerate(users):
            log.log(base + 1000.0 * offset, user, group, 1.0, 1500.0)


class TestAutoscaler:
    def test_bootstrap_period_provisions_for_observed_workload(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog)
        log = TraceLog()
        log_hour(log, 0, {1: range(15)})
        action = scaler.run_period_end(log, 0.0, MILLISECONDS_PER_HOUR)
        # 15 users in group 1 need 2 nano instances (capacity 10 each).
        assert action.decision is None  # bootstrap: no prediction yet
        assert provisioner.running_by_type().get("t2.nano", 0) == 2
        assert backend.instances_for_level(1)

    def test_predictive_period_uses_model_decision(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog)
        log = TraceLog()
        log_hour(log, 0, {1: range(15)})
        log_hour(log, 1, {1: range(25), 2: range(100, 105)})
        scaler.run_period_end(log, 0.0, MILLISECONDS_PER_HOUR)
        action = scaler.run_period_end(log, MILLISECONDS_PER_HOUR, 2 * MILLISECONDS_PER_HOUR)
        assert action.decision is not None
        assert action.plan.feasible
        # Both groups seen in history, so both have capacity after scaling.
        assert provisioner.running_by_type().get("t2.nano", 0) >= 1

    def test_scale_down_terminates_surplus_instances(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog)
        log = TraceLog()
        log_hour(log, 0, {1: range(40)})   # needs 5 nanos
        log_hour(log, 1, {1: range(5)})    # quiet hour
        log_hour(log, 2, {1: range(5)})    # quiet again: history now contains a similar quiet hour
        scaler.run_period_end(log, 0.0, MILLISECONDS_PER_HOUR)
        heavy = provisioner.running_by_type().get("t2.nano", 0)
        scaler.run_period_end(log, MILLISECONDS_PER_HOUR, 2 * MILLISECONDS_PER_HOUR)
        scaler.run_period_end(log, 2 * MILLISECONDS_PER_HOUR, 3 * MILLISECONDS_PER_HOUR)
        light = provisioner.running_by_type().get("t2.nano", 0)
        assert heavy > light
        assert any(action.terminated for action in scaler.actions)

    def test_minimum_per_group_keeps_groups_alive(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog, minimum_per_group=1)
        log = TraceLog()
        log_hour(log, 0, {1: range(3)})  # group 2 has no workload at all
        scaler.run_period_end(log, 0.0, MILLISECONDS_PER_HOUR)
        assert backend.instances_for_level(2), "group 2 should keep a minimum instance"

    def test_actions_recorded_in_order(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog)
        log = TraceLog()
        log_hour(log, 0, {1: range(5)})
        log_hour(log, 1, {1: range(6)})
        scaler.run_period_end(log, 0.0, MILLISECONDS_PER_HOUR)
        scaler.run_period_end(log, MILLISECONDS_PER_HOUR, 2 * MILLISECONDS_PER_HOUR)
        assert [action.period_index for action in scaler.actions] == [0, 1]

    def test_instance_cap_limits_launches(self, engine, catalog):
        scaler, model, provisioner, backend = make_autoscaler(engine, catalog, instance_cap=3)
        log = TraceLog()
        log_hour(log, 0, {1: range(25)})  # would need 3+ nanos; capped at 3 total
        scaler.run_period_end(log, 0.0, MILLISECONDS_PER_HOUR)
        assert provisioner.running_count <= 3

    def test_invalid_minimum_per_group(self, engine, catalog):
        with pytest.raises(ValueError):
            make_autoscaler(engine, catalog, minimum_per_group=-1)
