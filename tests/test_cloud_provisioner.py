"""Tests for provisioning and per-hour billing."""

import pytest

from repro.cloud.provisioner import Provisioner, ProvisioningError
from repro.simulation.clock import MILLISECONDS_PER_HOUR


@pytest.fixture
def provisioner(engine, catalog):
    return Provisioner(engine, catalog, instance_cap=5)


class TestLaunchTerminate:
    def test_launch_adds_running_instance(self, provisioner):
        instance = provisioner.launch("t2.nano")
        assert provisioner.running_count == 1
        assert instance.is_running

    def test_launch_unknown_type_raises(self, provisioner):
        with pytest.raises(KeyError):
            provisioner.launch("nonexistent")

    def test_cap_enforced(self, provisioner):
        for _ in range(5):
            provisioner.launch("t2.nano")
        with pytest.raises(ProvisioningError):
            provisioner.launch("t2.nano")

    def test_terminate_removes_and_bills(self, provisioner, engine):
        instance = provisioner.launch("t2.large")
        engine.clock.advance_to(30 * 60 * 1000.0)  # 30 minutes
        record = provisioner.terminate(instance)
        assert provisioner.running_count == 0
        assert record.billed_hours == 1
        assert record.cost == pytest.approx(0.101)

    def test_terminate_unknown_instance_raises(self, provisioner, engine, catalog):
        other = Provisioner(engine, catalog).launch("t2.nano")
        with pytest.raises(KeyError):
            provisioner.terminate(other)

    def test_terminate_all(self, provisioner):
        instances = [provisioner.launch("t2.nano") for _ in range(3)]
        records = [provisioner.terminate(instance) for instance in instances]
        assert len(records) == 3
        assert provisioner.running_count == 0


class TestBilling:
    def test_partial_hours_round_up(self, provisioner, engine):
        instance = provisioner.launch("t2.nano")
        engine.clock.advance_to(1.5 * MILLISECONDS_PER_HOUR)
        record = provisioner.terminate(instance)
        assert record.billed_hours == 2

    def test_instant_terminate_still_bills_one_hour(self, provisioner):
        instance = provisioner.launch("t2.nano")
        record = provisioner.terminate(instance)
        assert record.billed_hours == 1

    def test_total_cost_includes_running_instances(self, provisioner, engine):
        provisioner.launch("t2.large")
        engine.clock.advance_to(0.5 * MILLISECONDS_PER_HOUR)
        assert provisioner.total_cost(include_running=True) == pytest.approx(0.101)
        assert provisioner.total_cost(include_running=False) == 0.0

    def test_total_cost_sums_terminated_and_running(self, provisioner, engine):
        first = provisioner.launch("t2.nano")
        engine.clock.advance_to(MILLISECONDS_PER_HOUR)
        provisioner.terminate(first)
        provisioner.launch("t2.nano")
        expected = 0.0063 + 0.0063  # one billed hour each
        assert provisioner.total_cost() == pytest.approx(expected)

    def test_running_by_type(self, provisioner):
        for type_name in ("t2.nano", "t2.nano", "t2.large"):
            provisioner.launch(type_name)
        assert provisioner.running_by_type() == {"t2.nano": 2, "t2.large": 1}

    def test_invalid_cap_rejected(self, engine, catalog):
        with pytest.raises(ValueError):
            Provisioner(engine, catalog, instance_cap=0)


class TestBootDelay:
    def test_zero_delay_instances_are_ready_at_launch(self, provisioner):
        instance = provisioner.launch("t2.nano")
        assert instance.ready_at_ms == instance.launched_at_ms
        assert not instance.is_booting
        assert provisioner.running_count == provisioner.launched_count == 1

    def test_booting_instances_count_as_launched_not_running(self, engine, catalog):
        provisioner = Provisioner(
            engine, catalog, instance_cap=5, boot_delay_ms=60_000.0
        )
        instance = provisioner.launch("t2.nano")
        assert instance.is_booting
        assert instance.ready_at_ms == 60_000.0
        # The cap slot is taken (launched) even though nothing serves yet.
        assert provisioner.launched_count == 1
        assert provisioner.running_count == 0
        engine.clock.advance_to(60_000.0)
        assert not instance.is_booting
        assert provisioner.running_count == 1

    def test_negative_boot_delay_rejected(self, engine, catalog):
        with pytest.raises(ValueError, match="boot_delay_ms"):
            Provisioner(engine, catalog, boot_delay_ms=-5.0)

    def test_cap_enforced_over_booting_instances(self, engine, catalog):
        provisioner = Provisioner(
            engine, catalog, instance_cap=2, boot_delay_ms=60_000.0
        )
        provisioner.launch("t2.nano")
        provisioner.launch("t2.nano")
        with pytest.raises(ProvisioningError):
            provisioner.launch("t2.nano")
