"""Tests for acceleration groups and the characterization procedure."""

import pytest

from repro.cloud.catalog import DEFAULT_CATALOG
from repro.core.acceleration import (
    AccelerationGroup,
    characterize_instances,
)

CATALOG_NAMES = [instance_type.name for instance_type in DEFAULT_CATALOG]


class TestAccelerationGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            AccelerationGroup(level=-1, instance_types=("a",), capacity=1.0, speed_factor=1.0)
        with pytest.raises(ValueError):
            AccelerationGroup(level=0, instance_types=(), capacity=1.0, speed_factor=1.0)
        with pytest.raises(ValueError):
            AccelerationGroup(level=0, instance_types=("a",), capacity=-1.0, speed_factor=1.0)
        with pytest.raises(ValueError):
            AccelerationGroup(level=0, instance_types=("a",), capacity=1.0, speed_factor=0.0)


class TestCharacterizeDefaultCatalog:
    def test_reproduces_paper_grouping(self):
        """The analytic characterization reproduces the paper's level assignment."""
        result = characterize_instances(DEFAULT_CATALOG)
        levels = result.as_level_map()
        assert levels["t2.micro"] == 0
        assert levels["t2.nano"] == levels["t2.small"] == 1
        assert levels["t2.medium"] == levels["t2.large"] == 2
        assert levels["m4.4xlarge"] == levels["m4.10xlarge"] == 3
        assert levels["c4.8xlarge"] == 4
        assert result.group_count == 5

    def test_groups_ordered_by_capacity(self):
        result = characterize_instances(DEFAULT_CATALOG)
        capacities = [group.capacity for group in result.groups]
        assert capacities == sorted(capacities)

    def test_fig5_acceleration_ratios(self):
        result = characterize_instances(DEFAULT_CATALOG)
        assert result.acceleration_ratio(2, 1) == pytest.approx(1.25, rel=0.03)
        assert result.acceleration_ratio(3, 1) == pytest.approx(1.73, rel=0.03)
        assert result.acceleration_ratio(3, 2) == pytest.approx(1.38, rel=0.03)

    def test_group_for_type_and_level_for_type(self):
        result = characterize_instances(DEFAULT_CATALOG)
        assert result.as_level_map()["t2.large"] == 2
        assert "t2.large" in result.groups[2].instance_types
        assert "unknown" not in result.as_level_map()

    def test_acceleration_ratio_unknown_level_raises(self):
        result = characterize_instances(DEFAULT_CATALOG)
        with pytest.raises(KeyError):
            result.acceleration_ratio(9, 1)

    def test_capacities_recorded_for_every_type(self):
        result = characterize_instances(DEFAULT_CATALOG)
        assert set(result.capacities) == set(CATALOG_NAMES)


class TestCharacterizationOptions:
    def test_measured_capacities_override_analytic(self):
        # Force every type to the same measured capacity: everything lands in one group.
        measured = {name: 50.0 for name in CATALOG_NAMES}
        result = characterize_instances(DEFAULT_CATALOG, measured_capacities=measured)
        assert result.group_count == 1

    def test_measured_speed_factors_override(self):
        measured_speeds = {name: 1.0 for name in CATALOG_NAMES}
        result = characterize_instances(DEFAULT_CATALOG, measured_speed_factors=measured_speeds)
        for group in result.groups:
            assert group.speed_factor == 1.0

    def test_zero_tolerance_separates_similar_types(self):
        result = characterize_instances(DEFAULT_CATALOG, capacity_tolerance=0.0)
        # With zero tolerance nearly every distinct capacity is its own group.
        assert result.group_count >= 6

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            characterize_instances(DEFAULT_CATALOG, capacity_tolerance=-0.1)

    def test_tighter_threshold_reduces_capacities(self):
        strict = characterize_instances(DEFAULT_CATALOG, response_threshold_ms=300.0)
        loose = characterize_instances(DEFAULT_CATALOG, response_threshold_ms=2000.0)
        for name in CATALOG_NAMES:
            assert strict.capacities[name] <= loose.capacities[name]

    def test_subset_catalog(self):
        subset = DEFAULT_CATALOG.subset(["t2.nano", "t2.micro"])
        result = characterize_instances(subset)
        assert result.group_count == 2
        assert result.as_level_map() == {"t2.micro": 0, "t2.nano": 1}
