"""Validation, round-tripping and pickling of the multi-site specs."""

import dataclasses
import pickle

import pytest

from repro.multisite.spec import (
    BROKER_POLICIES,
    MultiSiteSpec,
    OutageWindow,
    SiteSpec,
    SpilloverSpec,
)
from repro.scenarios.spec import CloudSpec, NetworkSpec, ScenarioSpec, WorkloadSpec


def two_sites(policy="nearest-rtt") -> MultiSiteSpec:
    return MultiSiteSpec(
        sites=(
            SiteSpec(
                name="edge",
                cloud=CloudSpec(group_types={1: "t2.nano", 2: "t2.large"}, instance_cap=6),
                network=NetworkSpec(profile="lte"),
                wan_rtt_ms=4.0,
                population_share=3.0,
                outages=(OutageWindow(start=0.25, end=0.5),),
            ),
            SiteSpec(
                name="core",
                cloud=CloudSpec(instance_cap=20),
                wan_rtt_ms=40.0,
                price_multiplier=0.8,
            ),
        ),
        policy=policy,
    )


class TestOutageWindow:
    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError, match="after its start"):
            OutageWindow(start=0.5, end=0.25)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            OutageWindow(start=-0.1, end=0.5)
        with pytest.raises(ValueError):
            OutageWindow(start=0.2, end=1.5)

    def test_contains_uses_run_fractions(self):
        window = OutageWindow(start=0.25, end=0.5)
        assert window.contains(300.0, 1000.0)
        assert not window.contains(200.0, 1000.0)
        assert not window.contains(500.0, 1000.0)  # half-open


class TestSiteSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="name"):
            SiteSpec(name="")
        with pytest.raises(ValueError, match="wan_rtt_ms"):
            SiteSpec(name="x", wan_rtt_ms=-1.0)
        with pytest.raises(ValueError, match="price_multiplier"):
            SiteSpec(name="x", price_multiplier=0.0)
        with pytest.raises(ValueError, match="weight"):
            SiteSpec(name="x", weight=0.0)

    @pytest.mark.parametrize(
        "field", ["wan_rtt_ms", "price_multiplier", "population_share", "weight"]
    )
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            SiteSpec(name="x", **{field: float("nan")})

    def test_broker_weight_defaults_to_instance_cap(self):
        site = SiteSpec(name="x", cloud=CloudSpec(instance_cap=7))
        assert site.broker_weight == 7.0
        assert SiteSpec(name="y", weight=2.5).broker_weight == 2.5

    def test_availability_honours_outages(self):
        site = two_sites().sites[0]
        assert site.available_at(0.0, 1000.0)
        assert not site.available_at(300.0, 1000.0)
        assert site.available_at(600.0, 1000.0)


class TestMultiSiteSpec:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            MultiSiteSpec(sites=(SiteSpec(name="a"), SiteSpec(name="a")))

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            MultiSiteSpec(sites=(SiteSpec(name="a"),), policy="teleport")

    def test_rejects_empty_federation(self):
        with pytest.raises(ValueError, match="at least one site"):
            MultiSiteSpec(sites=())

    def test_all_policies_are_constructible(self):
        for policy in BROKER_POLICIES:
            assert two_sites(policy).policy == policy

    def test_site_lookup(self):
        spec = two_sites()
        assert spec.sites[spec.site_names.index("core")].wan_rtt_ms == 40.0
        assert "moon" not in spec.site_names

    def test_round_trips_through_dict(self):
        spec = two_sites(policy="failover")
        rebuilt = MultiSiteSpec(**dataclasses.asdict(spec))
        assert rebuilt == spec
        assert rebuilt.sites[0].outages == spec.sites[0].outages

    def test_pickles_cleanly(self):
        spec = two_sites()
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestScenarioSpecIntegration:
    def scenario(self, **overrides) -> ScenarioSpec:
        defaults = dict(
            name="ms",
            users=10,
            duration_hours=0.5,
            slot_minutes=10.0,
            workload=WorkloadSpec(pattern="uniform", target_requests=100),
            sites=two_sites(),
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    def test_is_multisite_flag(self):
        assert self.scenario().sites is not None
        assert ScenarioSpec(name="plain").sites is None

    def test_scenario_round_trips_with_sites(self):
        spec = self.scenario()
        rebuilt = ScenarioSpec(**spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.sites is not None
        assert rebuilt.sites.site_names == ("edge", "core")

    def test_scenario_accepts_dict_form_sites(self):
        spec = self.scenario(sites=dataclasses.asdict(two_sites()))
        assert isinstance(spec.sites, MultiSiteSpec)

    def test_scenario_rejects_garbage_sites(self):
        with pytest.raises((ValueError, TypeError)):
            self.scenario(sites=42)

    def test_scenario_pickles_with_sites(self):
        spec = self.scenario()
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSpilloverSpec:
    def dynamic(self, spillover) -> MultiSiteSpec:
        return MultiSiteSpec(
            sites=(SiteSpec(name="a"), SiteSpec(name="b")),
            policy="dynamic-load",
            spillover=spillover,
        )

    def test_defaults_validate(self):
        spec = SpilloverSpec()
        assert spec.queue_limit_fraction == 0.8
        assert spec.prefer == "nearest-rtt"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="queue_limit_fraction"):
            SpilloverSpec(queue_limit_fraction=0.0)
        with pytest.raises(ValueError, match="queue_limit_fraction"):
            SpilloverSpec(queue_limit_fraction=1.5)
        with pytest.raises(ValueError, match="prefer"):
            SpilloverSpec(prefer="fastest")

    def test_requires_dynamic_load_policy(self):
        with pytest.raises(ValueError, match="dynamic-load"):
            MultiSiteSpec(
                sites=(SiteSpec(name="a"), SiteSpec(name="b")),
                policy="weighted-load",
                spillover=SpilloverSpec(),
            )

    def test_dict_form_spillover_is_coerced(self):
        spec = self.dynamic({"queue_limit_fraction": 0.5, "prefer": "cheapest"})
        assert isinstance(spec.spillover, SpilloverSpec)
        assert spec.spillover.prefer == "cheapest"

    def test_round_trips_and_pickles(self):
        spec = self.dynamic(SpilloverSpec(queue_limit_fraction=0.4))
        rebuilt = MultiSiteSpec(**dataclasses.asdict(spec))
        assert rebuilt == spec
        assert rebuilt.spillover.queue_limit_fraction == 0.4
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_dynamic_load_without_spillover_is_valid(self):
        assert self.dynamic(None).spillover is None


class TestBrokerOverride:
    def test_with_overrides_replaces_policy(self):
        spec = ScenarioSpec(
            name="ms",
            users=10,
            duration_hours=0.5,
            workload=WorkloadSpec(pattern="uniform", target_requests=100),
            sites=two_sites(policy="nearest-rtt"),
        )
        assert spec.with_overrides(broker="failover").sites.policy == "failover"

    def test_single_site_scenario_rejects_broker(self):
        with pytest.raises(ValueError, match="single-site"):
            ScenarioSpec(name="plain").with_overrides(broker="failover")

    def test_override_to_static_policy_drops_spillover(self):
        sites = MultiSiteSpec(
            sites=(SiteSpec(name="a"), SiteSpec(name="b")),
            policy="dynamic-load",
            spillover=SpilloverSpec(),
        )
        spec = ScenarioSpec(
            name="ms",
            users=10,
            duration_hours=0.5,
            workload=WorkloadSpec(pattern="uniform", target_requests=100),
            sites=sites,
        )
        overridden = spec.with_overrides(broker="weighted-load")
        assert overridden.sites.policy == "weighted-load"
        assert overridden.sites.spillover is None
        # Re-overriding back to dynamic keeps the original spillover knobs.
        assert spec.with_overrides(broker="dynamic-load").sites.spillover is not None


class TestCapacitySignal:
    def make_sites(self, **kwargs):
        defaults = dict(
            sites=(SiteSpec(name="a"), SiteSpec(name="b")),
            policy="dynamic-load",
        )
        defaults.update(kwargs)
        return MultiSiteSpec(**defaults)

    def test_defaults_to_per_group(self):
        assert self.make_sites().capacity_signal == "per-group"

    def test_fleet_accepted(self):
        assert self.make_sites(capacity_signal="fleet").capacity_signal == "fleet"

    def test_unknown_signal_rejected(self):
        with pytest.raises(ValueError, match="capacity_signal"):
            self.make_sites(capacity_signal="per-fleet")

    def test_round_trips_through_dict(self):
        spec = self.make_sites(capacity_signal="fleet")
        clone = MultiSiteSpec(**dataclasses.asdict(spec))
        assert clone == spec
        assert clone.capacity_signal == "fleet"

    def test_group_axis_is_sorted_union(self):
        spec = MultiSiteSpec(
            sites=(
                SiteSpec(name="a", cloud=CloudSpec(group_types={1: "t2.nano", 3: "m4.4xlarge"})),
                SiteSpec(name="b", cloud=CloudSpec(group_types={2: "t2.medium"})),
            ),
            policy="dynamic-load",
        )
        assert spec.group_axis == (1, 2, 3)


class TestCapacitySignalOverride:
    def test_override_on_multisite_spec(self):
        from repro.scenarios import get_scenario

        spec = get_scenario("mixed-fleet-miscount").with_overrides(
            capacity_signal="fleet"
        )
        assert spec.sites.capacity_signal == "fleet"
        # The broker policy and spillover knobs survive the override.
        assert spec.sites.policy == "dynamic-load"
        assert spec.sites.spillover is not None

    def test_override_rejected_for_single_site(self):
        from repro.scenarios import get_scenario

        with pytest.raises(ValueError, match="capacity-signal"):
            get_scenario("paper-baseline").with_overrides(capacity_signal="fleet")
