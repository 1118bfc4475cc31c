"""Tests for the shared analysis metrics."""

import pytest

from repro.cloud.catalog import DEFAULT_CATALOG
from repro.core.acceleration import (
    AccelerationGroup,
    AccelerationLevelCharacterization,
    characterize_instances,
)


class TestAccelerationRatio:
    """The Fig. 5 ratio: how many times faster one acceleration group runs a task."""

    def test_scalar_inputs(self):
        groups = [
            AccelerationGroup(level=1, instance_types=("a",), capacity=1.0, speed_factor=1.6),
            AccelerationGroup(level=2, instance_types=("b",), capacity=2.0, speed_factor=2.0),
        ]
        result = AccelerationLevelCharacterization(
            groups=groups, work_units=300.0, response_threshold_ms=500.0
        )
        assert result.acceleration_ratio(2, 1) == pytest.approx(1.25)

    def test_sequence_inputs_use_means(self):
        # A group's speed factor is the mean of its members' speeds.
        catalog = DEFAULT_CATALOG.subset(["t2.nano", "t2.small", "t2.large", "m4.4xlarge"])
        result = characterize_instances(
            catalog,
            measured_capacities={"t2.nano": 10, "t2.small": 10, "t2.large": 100, "m4.4xlarge": 100},
            measured_speed_factors={"t2.nano": 1.0, "t2.small": 1.2, "t2.large": 2.0, "m4.4xlarge": 2.4},
        )
        assert result.acceleration_ratio(1, 0) == pytest.approx(2.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            AccelerationGroup(level=1, instance_types=("a",), capacity=1.0, speed_factor=0.0)


class TestGroupRollupRows:
    def make_site(self, name, groups):
        from repro.scenarios.runner import SiteGroupResult, SiteResult

        return SiteResult(
            name=name,
            requests_total=sum(total for _, total, _ in groups),
            requests_dropped=sum(dropped for _, _, dropped in groups),
            mean_response_ms=100.0,
            p95_response_ms=200.0,
            allocation_cost_usd=1.0,
            scaling_actions=1,
            predictions=0,
            mean_utilization=0.5,
            groups=tuple(
                SiteGroupResult(
                    group=group, requests_total=total, requests_dropped=dropped
                )
                for group, total, dropped in groups
            ),
        )

    def test_rows_per_site_group_plus_federation_totals(self):
        from repro.analysis.metrics import group_rollup_rows

        sites = [
            self.make_site("lean", [(1, 100, 40), (2, 10, 0)]),
            self.make_site("roomy", [(1, 200, 10)]),
        ]
        rows = group_rollup_rows(sites)
        assert [(row["site"], row["group"]) for row in rows] == [
            ("lean", 1), ("lean", 2), ("roomy", 1), ("*", 1), ("*", 2),
        ]
        assert rows[0]["drop_rate_pct"] == 40.0
        federation_g1 = rows[3]
        assert federation_g1["requests"] == 300
        assert federation_g1["dropped"] == 50
        assert federation_g1["drop_rate_pct"] == pytest.approx(16.67, abs=0.01)

    def test_sites_without_group_data_contribute_nothing(self):
        from repro.analysis.metrics import group_rollup_rows

        assert group_rollup_rows([self.make_site("idle", [])]) == []

    def test_zero_request_group_reports_zero_rate(self):
        from repro.analysis.metrics import group_rollup_rows

        rows = group_rollup_rows([self.make_site("empty", [(1, 0, 0)])])
        assert rows[0]["drop_rate_pct"] == 0.0
        assert rows[-1]["site"] == "*"
