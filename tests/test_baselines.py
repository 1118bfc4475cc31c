"""Tests for the baseline policies the paper contrasts against."""

import pytest

from repro.baselines import (
    GreedyAllocator,
    LastValuePredictor,
    MeanWorkloadPredictor,
    OverProvisioningAllocator,
    ReactiveAutoscaler,
    RoundRobinRouting,
    build_static_backend,
)
from repro.cloud.backend import BackendPool
from repro.cloud.provisioner import Provisioner


class TestExports:
    def test_baseline_classes_are_importable_from_one_place(self):
        # The package re-exports every baseline the ablation benches use.
        assert GreedyAllocator and OverProvisioningAllocator
        assert LastValuePredictor and MeanWorkloadPredictor
        assert ReactiveAutoscaler and RoundRobinRouting


class TestStaticBackend:
    def test_builds_requested_mix(self, engine, catalog):
        provisioner = Provisioner(engine, catalog, instance_cap=10)
        backend = build_static_backend(
            provisioner,
            BackendPool(),
            {1: {"t2.nano": 2}, 2: {"t2.large": 1}},
        )
        assert len(backend.instances_for_level(1)) == 2
        assert len(backend.instances_for_level(2)) == 1
        assert provisioner.running_count == 3

    def test_rejects_negative_counts(self, engine, catalog):
        provisioner = Provisioner(engine, catalog, instance_cap=10)
        with pytest.raises(ValueError):
            build_static_backend(provisioner, BackendPool(), {1: {"t2.nano": -1}})

    def test_static_backend_is_never_adjusted(self, engine, catalog):
        """The baseline provisions once; nothing scales it afterwards."""
        provisioner = Provisioner(engine, catalog, instance_cap=10)
        backend = build_static_backend(provisioner, BackendPool(), {1: {"t2.nano": 1}})
        before = provisioner.running_by_type()
        # Simulate the passage of several hours: nothing changes by construction.
        engine.clock.advance_to(5 * 3_600_000.0)
        assert provisioner.running_by_type() == before
        assert backend.total_instances() == 1
