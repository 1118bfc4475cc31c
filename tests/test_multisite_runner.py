"""End-to-end multi-site federation tests: parity, outage failover, metrics.

Mirrors the single-site parity contract: a deterministic federation
(fixed-rate arrivals, constant per-site RTTs, promotions off) must be
*identical* between the event and batched executors, and stochastic
federations must agree within the documented single-site tolerances —
the broker itself is deterministic and shared, so site partitions always
match exactly.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from repro.analysis.metrics import federation_rollup
from repro.multisite.runner import execute_multisite
from repro.multisite.spec import MultiSiteSpec, OutageWindow, SiteSpec, SpilloverSpec
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.runner import SiteResult
from repro.scenarios.spec import (
    CloudSpec,
    NetworkSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.telemetry import NULL_TELEMETRY

MULTISITE_BUILTINS = (
    "region-outage-failover",
    "cross-region-flash-crowd",
    "price-arbitrage",
    "edge-vs-core",
    "hotspot-spillover",
    "load-chase",
    "mixed-fleet-miscount",
)


def with_capacity_signal(spec: ScenarioSpec, signal: str) -> ScenarioSpec:
    """A copy of a multi-site spec under a different live-state resolution."""
    return dataclasses.replace(
        spec, sites=dataclasses.replace(spec.sites, capacity_signal=signal)
    )


def deterministic_spec(**overrides) -> ScenarioSpec:
    sites = MultiSiteSpec(
        sites=(
            SiteSpec(
                name="edge",
                cloud=CloudSpec(group_types={1: "t2.nano", 2: "t2.large"}, instance_cap=6),
                network=NetworkSpec(profile="constant", constant_rtt_ms=30.0),
                wan_rtt_ms=5.0,
                population_share=2.0,
            ),
            SiteSpec(
                name="core",
                cloud=CloudSpec(instance_cap=12),
                network=NetworkSpec(profile="constant", constant_rtt_ms=50.0),
                wan_rtt_ms=40.0,
            ),
        ),
        policy="nearest-rtt",
    )
    defaults = dict(
        name="ms-deterministic",
        users=8,
        duration_hours=0.5,
        slot_minutes=10.0,
        task_name="fibonacci",
        workload=WorkloadSpec(pattern="fixed", target_requests=233),
        policy=PolicySpec(promotion="static", promotion_probability=0.0),
        sites=sites,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def stochastic_spec(policy="weighted-load", **overrides) -> ScenarioSpec:
    sites = MultiSiteSpec(
        sites=(
            SiteSpec(
                name="edge",
                cloud=CloudSpec(group_types={1: "t2.nano", 2: "t2.large"}, instance_cap=8),
                wan_rtt_ms=5.0,
                population_share=2.0,
            ),
            SiteSpec(name="core", cloud=CloudSpec(instance_cap=20), wan_rtt_ms=40.0),
        ),
        policy=policy,
    )
    defaults = dict(
        name="ms-stochastic",
        users=30,
        duration_hours=1.0,
        slot_minutes=15.0,
        task_name="fibonacci",
        workload=WorkloadSpec(pattern="uniform", target_requests=2500),
        sites=sites,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def run_both(spec: ScenarioSpec, seed: int):
    event = run_scenario(dataclasses.replace(spec, execution="event"), seed=seed)
    batched = run_scenario(dataclasses.replace(spec, execution="batched"), seed=seed)
    return event, batched


class TestDeterministicParity:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_metrics_identical_including_per_site(self, seed):
        event, batched = run_both(deterministic_spec(), seed)
        assert event.as_row() == batched.as_row()
        assert event.site_rows() == batched.site_rows()
        assert event.requests_unrouted == batched.requests_unrouted == 0

    def test_deterministic_run_is_multisite(self):
        result = run_scenario(deterministic_spec(execution="batched"), seed=0)
        assert result.is_multisite
        assert [site.name for site in result.sites] == ["edge", "core"]
        assert result.requests_total > 200


class TestStochasticEquivalence:
    @pytest.mark.parametrize("policy", ["weighted-load", "nearest-rtt"])
    def test_summary_statistics_within_tolerance(self, policy):
        event, batched = run_both(stochastic_spec(policy=policy), 0)
        # The broker is shared: the site partition matches exactly.
        assert event.requests_total == batched.requests_total
        for site_event, site_batched in zip(event.sites, batched.sites):
            assert site_event.requests_total == site_batched.requests_total
            assert site_event.scaling_actions == site_batched.scaling_actions
            assert site_event.allocation_cost_usd == pytest.approx(
                site_batched.allocation_cost_usd, rel=0.05
            )
            if not math.isnan(site_event.mean_response_ms):
                assert site_batched.mean_response_ms == pytest.approx(
                    site_event.mean_response_ms, rel=0.10
                )
        assert abs(event.drop_rate - batched.drop_rate) <= 0.02
        assert batched.mean_response_ms == pytest.approx(
            event.mean_response_ms, rel=0.10
        )
        assert batched.p95_response_ms == pytest.approx(
            event.p95_response_ms, rel=0.15
        )
        assert event.scaling_actions == batched.scaling_actions
        assert event.predictions == batched.predictions


class TestOutageFailover:
    def failover_spec(self, **overrides) -> ScenarioSpec:
        sites = MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="primary",
                    cloud=CloudSpec(instance_cap=12),
                    wan_rtt_ms=5.0,
                    outages=(OutageWindow(start=1.0 / 3.0, end=2.0 / 3.0),),
                ),
                SiteSpec(name="secondary", cloud=CloudSpec(instance_cap=12), wan_rtt_ms=30.0),
            ),
            policy="failover",
        )
        defaults = dict(
            name="ms-failover",
            users=12,
            duration_hours=0.75,
            slot_minutes=15.0,
            task_name="fibonacci",
            workload=WorkloadSpec(pattern="uniform", target_requests=450),
            sites=sites,
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    @pytest.mark.parametrize("execution", ["event", "batched"])
    def test_traffic_drains_to_secondary_without_drops(self, execution):
        result = run_scenario(self.failover_spec(execution=execution), seed=2)
        primary = result.site("primary")
        secondary = result.site("secondary")
        # Both sites served traffic, and the outage third moved to secondary.
        assert primary.requests_total > 0
        assert secondary.requests_total > 0.2 * result.requests_total
        assert result.requests_unrouted == 0
        assert result.requests_dropped == 0
        # The secondary's allocator actually scaled while it carried the load.
        assert secondary.scaling_actions == primary.scaling_actions > 0

    def test_federation_wide_outage_drops_at_broker(self):
        window = (OutageWindow(start=0.5, end=1.0),)
        sites = MultiSiteSpec(
            sites=(
                SiteSpec(name="a", outages=window),
                SiteSpec(name="b", outages=window),
            ),
            policy="failover",
        )
        spec = self.failover_spec(sites=sites)
        event, batched = run_both(spec, 1)
        assert event.requests_unrouted == batched.requests_unrouted > 0
        assert event.requests_dropped >= event.requests_unrouted
        # Unrouted requests never reach a site.
        assert sum(s.requests_total for s in event.sites) + event.requests_unrouted \
            == event.requests_total


class TestBuiltinMultisiteScenarios:
    @pytest.mark.parametrize("name", MULTISITE_BUILTINS)
    @pytest.mark.parametrize("execution", ["event", "batched"])
    def test_runs_small_in_both_modes(self, name, execution):
        spec = get_scenario(name).with_overrides(
            users=10, duration_hours=0.5, target_requests=120, execution=execution
        )
        result = run_scenario(spec, seed=0)
        assert result.is_multisite
        assert result.requests_total > 50
        assert len(result.sites) == 2
        assert sum(s.requests_total for s in result.sites) + result.requests_unrouted \
            == result.requests_total

    @pytest.mark.parametrize("name", MULTISITE_BUILTINS)
    def test_small_parity_within_tolerance(self, name):
        spec = get_scenario(name).with_overrides(
            users=10, duration_hours=0.5, target_requests=150
        )
        event, batched = run_both(spec, 0)
        assert event.requests_total == batched.requests_total
        assert [s.requests_total for s in event.sites] == [
            s.requests_total for s in batched.sites
        ]
        if not math.isnan(event.mean_response_ms):
            assert batched.mean_response_ms == pytest.approx(
                event.mean_response_ms, rel=0.10
            )

    def test_full_size_flash_crowd_survives_cap_saturation(self):
        # Regression: under weighted-load brokering every user hits both
        # sites, so a site's slot can observe (nearly) the whole user
        # population while holding a 14-instance cap — the per-site ILP goes
        # infeasible at the spike and must degrade to the cap-saturating
        # plan instead of raising AllocationError (crashed the default
        # campaign before the best-effort fallback existed).
        spec = get_scenario("cross-region-flash-crowd").with_overrides(
            execution="batched"
        )
        result = run_scenario(spec, seed=6001877480158004700)
        assert result.requests_total > 1000
        assert result.drop_rate < 0.5

    def test_price_arbitrage_prefers_cheap_site(self):
        spec = get_scenario("price-arbitrage").with_overrides(
            users=10, duration_hours=0.5, target_requests=150, execution="batched"
        )
        result = run_scenario(spec, seed=0)
        assert result.site("budget-far").requests_total > 0
        assert result.site("premium-near").requests_total == 0

    def test_edge_vs_core_splits_by_home(self):
        spec = get_scenario("edge-vs-core").with_overrides(
            users=12, duration_hours=0.5, target_requests=150, execution="batched"
        )
        result = run_scenario(spec, seed=0)
        assert result.site("edge").requests_total > result.site("core").requests_total > 0


def dynamic_spec(spillover=None, **overrides) -> ScenarioSpec:
    """A saturating two-site federation under the dynamic-load broker."""
    sites = MultiSiteSpec(
        sites=(
            SiteSpec(
                name="hot",
                cloud=CloudSpec(group_types={1: "t2.nano"}, instance_cap=2),
                wan_rtt_ms=5.0,
                weight=4.0,
                population_share=2.0,
            ),
            SiteSpec(
                name="cold",
                cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=12),
                wan_rtt_ms=30.0,
                weight=1.0,
            ),
        ),
        policy="dynamic-load",
        spillover=spillover,
    )
    defaults = dict(
        name="ms-dynamic",
        users=30,
        duration_hours=0.25,
        slot_minutes=7.5,
        task_name="bubblesort",
        workload=WorkloadSpec(pattern="uniform", target_requests=14_000),
        policy=PolicySpec(promotion="static", promotion_probability=0.0),
        sites=sites,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestDynamicBrokerParity:
    """Event-vs-batched agreement for the slot-loop broker.

    The dynamic broker's decisions depend only on the plan and the capacity
    snapshots both executors publish at the same boundaries, so per-slot
    routing (and spill) must match *exactly* under a shared seed; response
    times carry the usual FCFS-vs-processor-sharing tolerances (mirrors
    ``TestSaturationParity``).
    """

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "spillover",
        [None, SpilloverSpec(queue_limit_fraction=0.8)],
        ids=["reweight-only", "with-spillover"],
    )
    def test_per_slot_routing_identical(self, seed, spillover):
        event, batched = run_both(dynamic_spec(spillover), seed)
        assert event.slot_site_requests == batched.slot_site_requests
        assert event.slot_routing_shares() == batched.slot_routing_shares()
        assert event.requests_spilled == batched.requests_spilled
        assert event.requests_total == batched.requests_total
        assert [s.requests_total for s in event.sites] == [
            s.requests_total for s in batched.sites
        ]
        assert [s.requests_spilled_in for s in event.sites] == [
            s.requests_spilled_in for s in batched.sites
        ]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_response_metrics_within_tolerance(self, seed):
        event, batched = run_both(
            dynamic_spec(SpilloverSpec(queue_limit_fraction=0.8)), seed
        )
        assert abs(event.drop_rate - batched.drop_rate) <= 0.02
        assert batched.mean_response_ms == pytest.approx(
            event.mean_response_ms, rel=0.10
        )
        assert batched.p95_response_ms == pytest.approx(
            event.p95_response_ms, rel=0.15
        )
        assert event.scaling_actions == batched.scaling_actions

    def test_spillover_actually_fires_under_saturation(self):
        result = run_scenario(
            dynamic_spec(SpilloverSpec(queue_limit_fraction=0.8), execution="batched"),
            seed=0,
        )
        assert result.requests_spilled > 0
        assert result.site("cold").requests_spilled_in == result.requests_spilled
        assert result.site("hot").requests_spilled_in == 0

    def test_hotspot_spillover_acceptance_criterion(self):
        """``--broker dynamic-load`` halves the saturated site's drop rate.

        The registered hotspot-spillover scenario against the same spec
        overridden to static weighted-load brokering (equal total capacity,
        spillover knobs dropped by the override), verified in both
        execution modes.
        """
        spec = get_scenario("hotspot-spillover")
        static_spec = spec.with_overrides(broker="weighted-load")
        for execution in ("event", "batched"):
            dynamic = run_scenario(
                spec.with_overrides(execution=execution), seed=0
            )
            static = run_scenario(
                static_spec.with_overrides(execution=execution), seed=0
            )
            hot_static = static.site("hotspot").drop_rate
            hot_dynamic = dynamic.site("hotspot").drop_rate
            assert hot_static > 0.05, "hotspot must actually saturate"
            assert hot_dynamic <= 0.5 * hot_static, (
                f"{execution}: dynamic {hot_dynamic:.3f} vs static {hot_static:.3f}"
            )
            assert dynamic.requests_spilled > 0
            assert static.requests_spilled == 0

    def test_load_chase_reweights_after_outage(self):
        """Re-weighting shifts traffic off the congested standby post-outage."""
        result = run_scenario(
            get_scenario("load-chase").with_overrides(execution="batched"), seed=0
        )
        shares = result.slot_routing_shares()
        assert len(shares) == 4
        before, outage, after, recovered = (row[0] for row in shares)
        assert before == pytest.approx(0.75, abs=0.02)
        assert outage == 0.0  # primary dark
        # The standby is congested after the outage, so the primary's share
        # exceeds its declared 3:1 weight until the backlog drains.
        assert after > before + 0.05
        assert recovered == pytest.approx(0.75, abs=0.05)


class TestFederationRollup:
    def test_rollup_matches_headline_metrics(self):
        result = run_scenario(stochastic_spec(execution="batched"), seed=0)
        rollup = federation_rollup(result.sites)
        assert rollup["requests"] == result.requests_total - result.requests_unrouted
        assert rollup["dropped"] == result.requests_dropped - result.requests_unrouted
        assert rollup["cost_usd"] == pytest.approx(result.allocation_cost_usd)
        assert rollup["mean_ms"] == pytest.approx(result.mean_response_ms, rel=0.01)

    def test_rollup_rejects_empty(self):
        with pytest.raises(ValueError):
            federation_rollup([])

    def test_zero_request_site_keeps_an_explicit_row(self):
        # Regression: a site the broker never picks must still appear as an
        # explicit zero row, so federation_rollup and
        # BrokeredPlan.indices_for_site agree on totals — with the zero row
        # silently dropped, rollup["sites"] undercounts and per-site sums no
        # longer reach requests_total.
        spec = get_scenario("price-arbitrage").with_overrides(
            users=10, duration_hours=0.5, target_requests=150, execution="batched"
        )
        result = run_scenario(spec, seed=0)
        empty = result.site("premium-near")
        assert empty.requests_total == 0
        assert len(result.sites) == 2
        rollup = federation_rollup(result.sites)
        assert rollup["sites"] == 2.0
        assert rollup["requests"] == result.requests_total - result.requests_unrouted
        # The zero row renders as n/a, not NaN, and never skews the mean.
        assert empty.as_row()["mean_ms"] == "n/a"
        assert rollup["mean_ms"] == pytest.approx(result.mean_response_ms, rel=0.01)

    def test_site_result_zero_constructor_matches_rollup_contract(self):
        zero = SiteResult.zero("idle")
        served = SiteResult(
            name="busy",
            requests_total=100,
            requests_dropped=10,
            mean_response_ms=500.0,
            p95_response_ms=900.0,
            allocation_cost_usd=1.5,
            scaling_actions=2,
            predictions=1,
            mean_utilization=0.4,
            requests_spilled_in=7,
        )
        rollup = federation_rollup([served, zero])
        assert rollup["sites"] == 2.0
        assert rollup["requests"] == 100.0
        assert rollup["spilled"] == 7.0
        assert rollup["mean_ms"] == pytest.approx(500.0)
        assert zero.drop_rate == 0.0
        assert zero.as_row()["requests"] == 0


class TestDeterminism:
    def test_both_entry_points_use_the_spec_seed(self):
        from repro.multisite.runner import run_multisite_scenario

        spec = dataclasses.replace(
            get_scenario("edge-vs-core").with_overrides(target_requests=600), seed=5
        )
        direct = run_multisite_scenario(spec)
        assert direct.seed == 5
        assert result_digest(direct) == result_digest(run_scenario(spec))

    def test_same_seed_same_result(self):
        spec = stochastic_spec(execution="batched")
        first = run_scenario(spec, seed=9)
        second = run_scenario(spec, seed=9)
        assert first.as_row() == second.as_row()
        assert first.site_rows() == second.site_rows()

    def test_different_seeds_differ(self):
        spec = stochastic_spec(execution="batched")
        assert run_scenario(spec, seed=1).as_row() != run_scenario(spec, seed=2).as_row()


#: Result digests of the dynamic-load registry scenarios at seed 0, in both
#: execution modes.  A change meant to keep results bit-identical (such as a
#: faster broker walk) must leave every one unchanged; a change that moves
#: results on purpose re-pins them and says why.
DYNAMIC_LOAD_DIGESTS = {
    ("hotspot-spillover", "event"): "c295e749091a581f",
    ("hotspot-spillover", "batched"): "8498fd9852db016e",
    ("load-chase", "event"): "eef6383596fcbbae",
    ("load-chase", "batched"): "7c8c33c2289dfa87",
    ("mixed-fleet-miscount", "event"): "a48ab21c09e2880f",
    ("mixed-fleet-miscount", "batched"): "59ba38ebe128c0b0",
    ("stale-broker", "event"): "8516161f530f3349",
    ("stale-broker", "batched"): "0d4ba661b6267e8c",
}


def result_digest(result) -> str:
    """Every field of a result, exact to the last float bit, as a short hash."""
    text = json.dumps(dataclasses.asdict(result), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class TestDynamicLoadDigests:
    @pytest.mark.parametrize("name, execution", sorted(DYNAMIC_LOAD_DIGESTS))
    def test_result_digest_pinned(self, name, execution):
        spec = get_scenario(name).with_overrides(execution=execution)
        result = run_scenario(spec, seed=0)
        assert result_digest(result) == DYNAMIC_LOAD_DIGESTS[(name, execution)]


class TestGroupAwareCapacityAccounting:
    """`mixed-fleet-miscount`: the group-resolved live-state signal vs the
    legacy fleet scalars, pinned in both execution modes."""

    @pytest.mark.parametrize("signal", ["per-group", "fleet"])
    def test_routing_identical_across_modes(self, signal):
        spec = with_capacity_signal(get_scenario("mixed-fleet-miscount"), signal)
        event, batched = run_both(spec, 0)
        assert event.slot_site_requests == batched.slot_site_requests
        assert event.slot_routing_shares() == batched.slot_routing_shares()
        assert event.requests_spilled == batched.requests_spilled
        assert [s.requests_total for s in event.sites] == [
            s.requests_total for s in batched.sites
        ]
        # Per-group *request* totals are part of the routing contract; the
        # per-group drop tallies carry the usual FCFS-vs-PS tolerances.
        for site_event, site_batched in zip(event.sites, batched.sites):
            assert [(g.group, g.requests_total) for g in site_event.groups] == [
                (g.group, g.requests_total) for g in site_batched.groups
            ]
            for g_event, g_batched in zip(site_event.groups, site_batched.groups):
                assert abs(g_event.drop_rate - g_batched.drop_rate) <= 0.02

    def test_acceptance_criterion_unpromoted_drop_rate_halved(self):
        """The group-aware signal cuts `lean`'s un-promoted (group-1) drop
        rate by >=50 % against the fleet-scalar signal, in both modes."""
        spec = get_scenario("mixed-fleet-miscount")
        fleet_spec = with_capacity_signal(spec, "fleet")
        for execution in ("event", "batched"):
            grouped = run_scenario(
                dataclasses.replace(spec, execution=execution), seed=0
            )
            fleet = run_scenario(
                dataclasses.replace(fleet_spec, execution=execution), seed=0
            )
            drop_fleet = fleet.site("lean").group(1).drop_rate
            drop_grouped = grouped.site("lean").group(1).drop_rate
            assert drop_fleet > 0.05, "the starved site must actually saturate"
            assert drop_grouped <= 0.5 * drop_fleet, (
                f"{execution}: per-group {drop_grouped:.3f} "
                f"vs fleet {drop_fleet:.3f}"
            )
            # The fleet scalars split the load ~50/50 (equal weights, backlog
            # drained at the phantom fleet rate); the group signal diverts
            # un-promoted traffic and spills the remainder.
            routed = fleet.requests_total - fleet.requests_unrouted
            assert fleet.site("lean").requests_total == pytest.approx(
                0.5 * routed, rel=0.02
            )
            assert grouped.site("lean").requests_total < (
                0.8 * fleet.site("lean").requests_total
            )
            assert grouped.requests_spilled > 0
            # Summed over groups, lean's admission looks bottomless to the
            # fleet guard: it never trips.
            assert fleet.requests_spilled == 0

    def test_group_rows_cover_all_requests(self):
        result = run_scenario(
            dataclasses.replace(
                get_scenario("mixed-fleet-miscount"), execution="batched"
            ),
            seed=0,
        )
        for site in result.sites:
            assert sum(g.requests_total for g in site.groups) == site.requests_total
            assert sum(g.requests_dropped for g in site.groups) == site.requests_dropped
            # The population is entirely un-promoted.
            assert [g.group for g in site.groups] == [1]


def fractional_core_spec(**overrides) -> ScenarioSpec:
    """A dynamic-load federation built entirely from fractional-core types."""
    sites = MultiSiteSpec(
        sites=(
            SiteSpec(
                name="small-cores",
                cloud=CloudSpec(group_types={1: "t2.small"}, instance_cap=2),
                wan_rtt_ms=5.0,
                weight=1.0,
                population_share=2.0,
            ),
            SiteSpec(
                name="large-cores",
                cloud=CloudSpec(group_types={1: "t2.large"}, instance_cap=4),
                wan_rtt_ms=30.0,
                weight=1.0,
            ),
        ),
        policy="dynamic-load",
        spillover=SpilloverSpec(queue_limit_fraction=0.8),
    )
    defaults = dict(
        name="ms-fractional",
        users=20,
        duration_hours=0.25,
        slot_minutes=7.5,
        task_name="bubblesort",
        workload=WorkloadSpec(pattern="uniform", target_requests=6000),
        policy=PolicySpec(promotion="static", promotion_probability=0.0),
        sites=sites,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestFractionalCoreParity:
    """The capacity signal and the fluid model agree on fractional cores."""

    def test_capacity_signal_uses_fluid_cores(self):
        from repro.mobile.tasks import DEFAULT_TASK_POOL
        from repro.multisite.federation import build_federation
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.randomness import RandomStreams

        federation = build_federation(
            scenario=fractional_core_spec(),
            engine=SimulationEngine(),
            streams=RandomStreams(0),
            task=DEFAULT_TASK_POOL.get("bubblesort"),
        )
        small, large = federation.sites
        # t2.small: 3.2 effective cores at speed 1.0; t2.large: 6.5 at 1.25.
        # The historical int(round(...)) form reported 3.0 and 8.75 (7*1.25).
        assert small.capacity_work_per_ms() == pytest.approx(3.2)
        assert large.capacity_work_per_ms() == pytest.approx(6.5 * 1.25)
        import numpy as np

        np.testing.assert_allclose(
            federation.capacity_snapshot(), [[3.2], [8.125]]
        )

    def test_routing_identical_across_modes(self):
        event, batched = run_both(fractional_core_spec(), 0)
        assert event.slot_site_requests == batched.slot_site_requests
        assert event.requests_spilled == batched.requests_spilled
        assert [s.requests_total for s in event.sites] == [
            s.requests_total for s in batched.sites
        ]
        assert abs(event.drop_rate - batched.drop_rate) <= 0.02


class TestBootDelayAccounting:
    """Booting instances hold cap slots but advertise no capacity."""

    def boot_spec(self) -> ScenarioSpec:
        sites = MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="slow-boot",
                    cloud=CloudSpec(
                        group_types={1: "t2.nano", 2: "t2.medium"},
                        instance_cap=6,
                        boot_delay_ms=120_000.0,
                    ),
                ),
                SiteSpec(name="instant", cloud=CloudSpec(group_types={1: "t2.nano"})),
            ),
            policy="dynamic-load",
        )
        return ScenarioSpec(
            name="ms-boot",
            users=8,
            duration_hours=0.5,
            slot_minutes=10.0,
            workload=WorkloadSpec(pattern="fixed", target_requests=100),
            sites=sites,
        )

    def test_booting_instances_held_against_cap_without_capacity(self):
        from repro.mobile.tasks import DEFAULT_TASK_POOL
        from repro.multisite.federation import build_federation
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.randomness import RandomStreams

        engine = SimulationEngine()
        federation = build_federation(
            scenario=self.boot_spec(),
            engine=engine,
            streams=RandomStreams(0),
            task=DEFAULT_TASK_POOL.get("minimax"),
        )
        slow, instant = federation.sites
        # Both initial instances of `slow-boot` are still booting at t=0:
        # no serving capacity, no admission headroom, but both cap slots are
        # taken - the broker must not see them as free headroom *and* zero
        # capacity at once (the double count this fixes).
        assert slow.capacity_work_per_ms() == 0.0
        assert slow.admission_capacity_requests() == 0
        assert slow.remaining_instance_cap() == 6 - 2
        assert slow.provisioner.launched_count == 2
        assert slow.provisioner.running_count == 0
        # The zero-delay site serves immediately.
        assert instant.capacity_work_per_ms() > 0.0
        # After the boot window the capacity appears, cap accounting unchanged.
        engine.clock.advance_to(120_000.0)
        assert slow.capacity_work_per_ms() == pytest.approx(3.0 + 7.5)
        assert slow.admission_capacity_requests() > 0
        assert slow.remaining_instance_cap() == 4
        assert slow.provisioner.running_count == 2


class TestGroupTallyContract:
    """Per-group site tallies key on the requesting group, not the clamp."""

    def clamping_spec(self, **overrides) -> ScenarioSpec:
        # `high-only` declares no group 1: un-promoted requests routed there
        # clamp *up* to its group-2 fleet, but must still be reported as
        # group-1 traffic in both execution modes.
        sites = MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="full",
                    cloud=CloudSpec(
                        group_types={1: "t2.nano", 2: "t2.medium"}, instance_cap=4
                    ),
                    wan_rtt_ms=5.0,
                    population_share=2.0,
                ),
                SiteSpec(
                    name="high-only",
                    cloud=CloudSpec(group_types={2: "t2.medium"}, instance_cap=4),
                    wan_rtt_ms=20.0,
                ),
            ),
            policy="dynamic-load",
        )
        defaults = dict(
            name="ms-clamping",
            users=10,
            duration_hours=0.25,
            slot_minutes=7.5,
            task_name="bubblesort",
            workload=WorkloadSpec(pattern="uniform", target_requests=800),
            policy=PolicySpec(promotion="static", promotion_probability=0.0),
            sites=sites,
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    def test_clamped_requests_reported_under_requesting_group(self):
        event, batched = run_both(self.clamping_spec(), 0)
        for result in (event, batched):
            high_only = result.site("high-only")
            assert high_only.requests_total > 0
            # Users homed at `full` are group 1; users homed at `high-only`
            # start at its lowest declared group, 2.  Both cohorts appear
            # under their *requesting* groups even though every request at
            # `high-only` is served by its group-2 fleet.
            assert {g.group for g in high_only.groups} <= {1, 2}
            assert high_only.group(1).requests_total > 0
        for site_event, site_batched in zip(event.sites, batched.sites):
            assert [(g.group, g.requests_total) for g in site_event.groups] == [
                (g.group, g.requests_total) for g in site_batched.groups
            ]

    def test_event_columns_keep_the_requesting_and_serving_group_per_row(self):
        run = execute_multisite(
            self.clamping_spec(execution="event"), 0, NULL_TELEMETRY
        )
        full, high_only = (site.accelerator for site in run.federation)
        # One column set for the federation: a row reaches at most one site.
        assert full.columns is high_only.columns
        assert not set(full.delivered) & set(high_only.delivered)
        columns = full.columns
        rows = np.asarray(high_only.delivered, dtype=np.int64)
        assert set(columns.served_group[rows].tolist()) == {2}
        assert 1 in set(columns.requested_group[rows].tolist())
        for stats, accelerator in zip(run.metrics.per_site, (full, high_only)):
            assert stats.requests_total == len(accelerator.delivered)
