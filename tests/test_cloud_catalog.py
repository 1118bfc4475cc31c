"""Tests for the instance catalog and its paper-derived calibration."""

import pytest

from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog, InstanceType
from repro.cloud.performance import PerformanceProfile


class TestInstanceType:
    def test_validation(self):
        profile = PerformanceProfile(speed_factor=1.0, effective_cores=1.0)
        with pytest.raises(ValueError):
            InstanceType(name="", vcpus=1, memory_gb=1, price_per_hour=0.1, acceleration_level=0, profile=profile)
        with pytest.raises(ValueError):
            InstanceType(name="x", vcpus=0, memory_gb=1, price_per_hour=0.1, acceleration_level=0, profile=profile)
        with pytest.raises(ValueError):
            InstanceType(name="x", vcpus=1, memory_gb=0, price_per_hour=0.1, acceleration_level=0, profile=profile)
        with pytest.raises(ValueError):
            InstanceType(name="x", vcpus=1, memory_gb=1, price_per_hour=-0.1, acceleration_level=0, profile=profile)

    def test_capacity_requests_per_minute_positive_for_feasible_threshold(self):
        nano = DEFAULT_CATALOG.get("t2.nano")
        assert nano.profile.capacity_under_threshold(300.0, 1000.0) > 0

    def test_capacity_zero_when_threshold_unreachable(self):
        nano = DEFAULT_CATALOG.get("t2.nano")
        assert nano.profile.capacity_under_threshold(2000.0, 100.0) == 0


class TestDefaultCatalogCalibration:
    def test_contains_all_paper_types(self):
        expected = {
            "t2.nano", "t2.micro", "t2.small", "t2.medium", "t2.large",
            "m4.4xlarge", "m4.10xlarge", "c4.8xlarge",
        }
        assert expected == {t.name for t in DEFAULT_CATALOG}

    def test_paper_acceleration_level_assignment(self):
        levels = {t.name: t.acceleration_level for t in DEFAULT_CATALOG}
        assert levels["t2.micro"] == 0
        assert levels["t2.nano"] == levels["t2.small"] == 1
        assert levels["t2.medium"] == levels["t2.large"] == 2
        assert levels["m4.4xlarge"] == levels["m4.10xlarge"] == 3
        assert levels["c4.8xlarge"] == 4

    def test_fig5_speed_ratios(self):
        """Level speed factors encode the paper's ~1.25x / ~1.73x / ~1.36x ratios."""
        nano = DEFAULT_CATALOG.get("t2.nano").profile.speed_factor
        large = DEFAULT_CATALOG.get("t2.large").profile.speed_factor
        m4 = DEFAULT_CATALOG.get("m4.10xlarge").profile.speed_factor
        assert large / nano == pytest.approx(1.25, rel=0.02)
        assert m4 / nano == pytest.approx(1.73, rel=0.02)
        assert m4 / large == pytest.approx(1.384, rel=0.02)

    def test_fig6_nano_micro_anomaly(self):
        """t2.nano outperforms the nominally larger free-tier t2.micro."""
        nano = DEFAULT_CATALOG.get("t2.nano")
        micro = DEFAULT_CATALOG.get("t2.micro")
        assert micro.free_tier and not nano.free_tier
        assert nano.profile.speed_factor > micro.profile.speed_factor
        work, threshold = 300.0, 500.0
        assert nano.profile.capacity_under_threshold(work, threshold) > \
            micro.profile.capacity_under_threshold(work, threshold)

    def test_prices_increase_with_capability_within_families(self):
        order = ["t2.nano", "t2.small", "t2.medium", "t2.large"]
        prices = [DEFAULT_CATALOG.get(name).price_per_hour for name in order]
        assert prices == sorted(prices)

    def test_micro_priced_above_nano(self):
        assert DEFAULT_CATALOG.get("t2.micro").price_per_hour > DEFAULT_CATALOG.get("t2.nano").price_per_hour


class TestInstanceCatalog:
    def test_get_unknown_type_raises_with_known_names(self):
        with pytest.raises(KeyError, match="t2.nano"):
            DEFAULT_CATALOG.get("t9.mega")

    def test_get_unknown_type_message_lists_every_type_sorted(self):
        known = sorted(instance_type.name for instance_type in DEFAULT_CATALOG)
        with pytest.raises(KeyError) as caught:
            DEFAULT_CATALOG.get("t9.mega")
        assert caught.value.args[0] == f"unknown instance type 't9.mega'; known types: {known}"

    def test_by_level_and_levels(self):
        by_level = {}
        for instance_type in DEFAULT_CATALOG:
            by_level.setdefault(instance_type.acceleration_level, set()).add(instance_type.name)
        assert by_level[1] == {"t2.nano", "t2.small"}
        assert sorted(by_level) == [0, 1, 2, 3, 4]

    def test_subset(self):
        subset = DEFAULT_CATALOG.subset(["t2.nano", "t2.large"])
        assert {t.name for t in subset} == {"t2.nano", "t2.large"}
        assert len(subset) == 2

    def test_contains_and_iter(self):
        assert "t2.nano" in DEFAULT_CATALOG
        assert "t9.mega" not in DEFAULT_CATALOG
        assert len(list(DEFAULT_CATALOG)) == len(DEFAULT_CATALOG)

    def test_duplicate_types_rejected(self):
        nano = DEFAULT_CATALOG.get("t2.nano")
        with pytest.raises(ValueError):
            InstanceCatalog([nano, nano])

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            InstanceCatalog([])
