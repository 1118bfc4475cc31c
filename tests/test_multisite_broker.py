"""Unit tests for the global request broker's routing policies."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multisite.broker import (
    SITE_ID_DTYPE,
    UNROUTED,
    DynamicBroker,
    assign_home_sites,
    availability_segments,
    broker_assign,
    site_price_scores,
    wan_penalty_matrix,
)
from repro.multisite.spec import MultiSiteSpec, OutageWindow, SiteSpec, SpilloverSpec
from repro.scenarios.spec import CloudSpec


def make_sites(**kwargs):
    defaults = dict(
        sites=(
            SiteSpec(name="a", cloud=CloudSpec(instance_cap=10), wan_rtt_ms=5.0),
            SiteSpec(name="b", cloud=CloudSpec(instance_cap=10), wan_rtt_ms=30.0),
        ),
        policy="failover",
    )
    defaults.update(kwargs)
    return MultiSiteSpec(**defaults)


def assign(federation, count=100, users=10, duration_ms=100_000.0, access=None):
    arrivals = np.linspace(0.0, duration_ms, count, endpoint=False)
    user_ids = np.arange(count) % users
    return broker_assign(
        arrival_ms=arrivals,
        user_ids=user_ids,
        users=users,
        federation=federation,
        duration_ms=duration_ms,
        access_rtt_ms=access if access is not None else [40.0] * len(federation.sites),
    )


class TestHomeAssignment:
    def test_shares_split_users_proportionally(self):
        sites = (
            SiteSpec(name="big", population_share=3.0),
            SiteSpec(name="small", population_share=1.0),
        )
        home = assign_home_sites(100, sites)
        assert int((home == 0).sum()) == 75
        assert int((home == 1).sum()) == 25

    def test_zero_share_site_gets_no_users(self):
        sites = (
            SiteSpec(name="peopled", population_share=1.0),
            SiteSpec(name="empty", population_share=0.0),
        )
        home = assign_home_sites(50, sites)
        assert int((home == 1).sum()) == 0

    def test_deterministic(self):
        sites = make_sites().sites
        first = assign_home_sites(33, sites)
        second = assign_home_sites(33, sites)
        np.testing.assert_array_equal(first, second)


class TestAvailabilitySegments:
    def test_no_outages_is_one_segment(self):
        segments = availability_segments(make_sites().sites, 1000.0)
        assert len(segments) == 1
        start, end, available = segments[0]
        assert (start, end) == (0.0, 1000.0)
        assert available.all()

    def test_outage_splits_run_into_three(self):
        sites = (
            SiteSpec(name="a", outages=(OutageWindow(start=0.3, end=0.6),)),
            SiteSpec(name="b"),
        )
        segments = availability_segments(sites, 1000.0)
        assert [(s, e) for s, e, _ in segments] == [
            (0.0, 300.0), (300.0, 600.0), (600.0, 1000.0)
        ]
        assert segments[0][2].all()
        assert not segments[1][2][0] and segments[1][2][1]
        assert segments[2][2].all()


class TestPolicies:
    def test_failover_prefers_declaration_order(self):
        brokered = assign(make_sites(policy="failover"))
        assert (brokered.site_ids == 0).all()

    def test_failover_shifts_during_outage(self):
        federation = make_sites(
            sites=(
                SiteSpec(name="a", outages=(OutageWindow(start=0.5, end=1.0),)),
                SiteSpec(name="b"),
            ),
            policy="failover",
        )
        brokered = assign(federation, count=100, duration_ms=100_000.0)
        assert (brokered.site_ids[:50] == 0).all()
        assert (brokered.site_ids[50:] == 1).all()

    def test_unrouted_when_every_site_is_down(self):
        window = (OutageWindow(start=0.5, end=1.0),)
        federation = make_sites(
            sites=(SiteSpec(name="a", outages=window), SiteSpec(name="b", outages=window)),
            policy="failover",
        )
        brokered = assign(federation, count=100)
        assert (brokered.site_ids[:50] == 0).all()
        assert (brokered.site_ids[50:] == UNROUTED).all()
        assert (brokered.site_ids == UNROUTED).sum() == 50

    def test_cheapest_picks_lowest_effective_price(self):
        federation = make_sites(
            sites=(
                SiteSpec(name="pricey", price_multiplier=3.0),
                SiteSpec(name="bargain", price_multiplier=0.5),
            ),
            policy="cheapest",
        )
        scores = site_price_scores(federation.sites)
        assert scores[1] < scores[0]
        brokered = assign(federation)
        assert (brokered.site_ids == 1).all()

    def test_nearest_rtt_keeps_users_at_home(self):
        federation = make_sites(policy="nearest-rtt")
        # Users homed at either site (equal shares): everyone should stay home
        # because leaving costs wan(home) + wan(remote) extra.
        brokered = assign(federation, count=200, users=10)
        home_of_request = brokered.home_site_of_user[np.arange(200) % 10]
        np.testing.assert_array_equal(brokered.site_ids, home_of_request)
        assert np.all(brokered.extra_rtt_ms == 0.0)

    def test_nearest_rtt_fails_over_to_next_nearest(self):
        federation = make_sites(
            sites=(
                SiteSpec(name="near", wan_rtt_ms=5.0,
                         outages=(OutageWindow(start=0.0, end=1.0),)),
                SiteSpec(name="far", wan_rtt_ms=30.0),
            ),
            policy="nearest-rtt",
        )
        brokered = assign(federation, count=100, users=10)
        assert (brokered.site_ids == 1).all()
        # Users homed at `near` now pay both WAN legs.
        homed_near = brokered.home_site_of_user[np.arange(100) % 10] == 0
        assert np.all(brokered.extra_rtt_ms[homed_near] == 35.0)
        assert np.all(brokered.extra_rtt_ms[~homed_near] == 0.0)

    def test_weighted_load_matches_weight_ratio(self):
        federation = make_sites(
            sites=(
                SiteSpec(name="wide", weight=3.0),
                SiteSpec(name="narrow", weight=1.0),
            ),
            policy="weighted-load",
        )
        brokered = assign(federation, count=400)
        counts = np.bincount(brokered.site_ids, minlength=2)
        assert counts[0] == 300
        assert counts[1] == 100

    def test_weighted_load_counters_carry_across_segments(self):
        federation = make_sites(
            sites=(
                SiteSpec(name="wide", weight=3.0,
                         outages=(OutageWindow(start=0.25, end=0.5),)),
                SiteSpec(name="narrow", weight=1.0),
            ),
            policy="weighted-load",
        )
        brokered = assign(federation, count=400, duration_ms=100_000.0)
        # During the outage quarter all 100 requests go to `narrow`; the WRR
        # counters then keep long-run shares tilted back toward `wide`.
        outage = slice(100, 200)
        assert (brokered.site_ids[outage] == 1).all()
        counts = np.bincount(brokered.site_ids, minlength=2)
        assert counts.sum() == 400
        assert counts[0] > 200  # wide still dominates overall

    def test_assignment_is_deterministic(self):
        federation = make_sites(policy="weighted-load")
        first = assign(federation)
        second = assign(federation)
        np.testing.assert_array_equal(first.site_ids, second.site_ids)


class TestWanPenalty:
    def test_matrix_is_symmetric_with_zero_diagonal(self):
        penalty = wan_penalty_matrix(make_sites().sites)
        assert penalty[0, 0] == 0.0 and penalty[1, 1] == 0.0
        assert penalty[0, 1] == penalty[1, 0] == 35.0

    def test_mismatched_access_rtt_length_rejected(self):
        federation = make_sites()
        with pytest.raises(ValueError, match="one access RTT per site"):
            assign(federation, access=[40.0])

    def test_zero_penalty_keeps_no_column(self):
        federation = make_sites(
            sites=(
                SiteSpec(name="a", cloud=CloudSpec(instance_cap=10)),
                SiteSpec(name="b", cloud=CloudSpec(instance_cap=10)),
            )
        )
        brokered = assign(federation)
        assert brokered.extra_rtt_ms is None
        assert brokered.site_ids.dtype == SITE_ID_DTYPE


class TestSiteIdBound:
    def test_more_sites_than_the_site_id_dtype_holds_are_rejected(self):
        # The bound is checked before any site is read.
        too_many = SimpleNamespace(sites=[None] * (int(np.iinfo(SITE_ID_DTYPE).max) + 1))
        with pytest.raises(ValueError, match="at most"):
            broker_assign(
                arrival_ms=np.zeros(1),
                user_ids=np.zeros(1, dtype=np.int64),
                users=1,
                federation=too_many,
                duration_ms=1.0,
                access_rtt_ms=[],
            )

    def test_dynamic_broker_checks_the_same_bound(self):
        from repro.multisite.broker import DynamicBroker

        too_many = SimpleNamespace(sites=[None] * (int(np.iinfo(SITE_ID_DTYPE).max) + 1))
        with pytest.raises(ValueError, match="at most"):
            DynamicBroker(
                plan=[],
                users=1,
                federation=too_many,
                duration_ms=1.0,
                access_rtt_ms=[],
            )


class TestDynamicBroker:
    """Unit tests for the slot-loop broker against synthetic live state."""

    def make_broker(self, *, spillover=None, weights=(1.0, 1.0), outages=((), ())):
        from repro.multisite.broker import DynamicBroker
        from repro.scenarios.plan import RequestPlan

        federation = MultiSiteSpec(
            sites=(
                SiteSpec(name="a", cloud=CloudSpec(group_types={1: "t2.nano"}),
                         wan_rtt_ms=5.0, weight=weights[0], outages=outages[0]),
                SiteSpec(name="b", cloud=CloudSpec(group_types={1: "t2.nano"}),
                         wan_rtt_ms=30.0, weight=weights[1], outages=outages[1]),
            ),
            policy="dynamic-load",
            spillover=spillover,
        )
        count = 200
        plan = RequestPlan(
            arrival_ms=np.linspace(0.0, 100_000.0, count, endpoint=False),
            user_ids=np.arange(count) % 10,
            work_units=np.full(count, 350.0),
            jitter_z=np.zeros(count),
            t1_ms=np.zeros(count),
            t2_ms=np.zeros(count),
            routing_ms=np.zeros(count),
        )
        broker = DynamicBroker(
            plan=plan,
            users=10,
            federation=federation,
            duration_ms=100_000.0,
            access_rtt_ms=[40.0, 40.0],
        )
        return plan, broker

    def slot(self, broker, start, end, capacity, admission=(1000, 1000)):
        return broker.broker_slot(
            start, end,
            capacity_work_per_ms=np.asarray(capacity, dtype=float),
            remaining_instance_cap=np.zeros(2, dtype=np.int64),
            admission_capacity=np.asarray(admission, dtype=np.int64),
        )

    def test_requires_capacity_snapshot(self):
        _, broker = self.make_broker()
        with pytest.raises(ValueError, match="capacity snapshot"):
            broker.broker_slot(0.0, 50_000.0)

    def test_equal_weights_equal_capacity_split_evenly(self):
        _, broker = self.make_broker()
        self.slot(broker, 0.0, 100_000.0, (2.0, 2.0))
        counts = broker.slot_site_requests[0]
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_reweighting_follows_backlog(self):
        # Slot 1 loads both sites evenly; before slot 2, site a's capacity
        # collapses so its backlog persists and its weight shrinks.
        _, broker = self.make_broker()
        self.slot(broker, 0.0, 50_000.0, (0.2, 2.0))
        first = broker.slot_site_requests[0]
        self.slot(broker, 50_000.0, 100_000.0, (0.2, 2.0))
        second = broker.slot_site_requests[1]
        # a's fluid backlog exceeds what 0.2 wu/ms clears, so its share drops.
        assert second[0] < first[0]
        assert second[1] > first[1]
        states = broker.load_history[1]
        assert states[0].backlog_work_units > 0.0
        assert states[0].in_flight_requests > 0.0

    def test_spillover_diverts_overflow_to_site_with_room(self):
        _, broker = self.make_broker(
            spillover=SpilloverSpec(queue_limit_fraction=0.5), weights=(10.0, 1.0)
        )
        # Site a keeps its declared 10:1 weight (no backlog yet) but only
        # admits 20 concurrent requests -> queue limit 10; site b has room.
        self.slot(broker, 0.0, 100_000.0, (0.5, 5.0), admission=(20, 1000))
        counts = broker.slot_site_requests[0]
        assert broker.requests_spilled > 0
        # Site a keeps at most its queue limit plus what its fleet drains
        # over the slot (0.5 wu/ms × 100 s / 350 wu ≈ 143 requests).
        assert int(counts[0]) <= 10 + int(0.5 * 100_000.0 / 350.0) + 1
        spilled_sites = broker.site_ids[broker.spilled]
        assert np.all(spilled_sites == 1)
        # Spilled requests pay the WAN penalty of their new serving site.
        homes = broker.home_site_of_user[
            np.asarray([uid % 10 for uid in np.flatnonzero(broker.spilled)])
        ]
        penalties = broker.penalty[homes, spilled_sites]
        assert np.all(penalties[homes == 0] == 35.0)

    def test_no_spill_when_every_site_is_saturated(self):
        _, broker = self.make_broker(spillover=SpilloverSpec(queue_limit_fraction=0.5))
        self.slot(broker, 0.0, 100_000.0, (0.0, 0.0), admission=(4, 4))
        # Nowhere has room: requests stay at their proposed site, unspilled.
        assert broker.requests_spilled == 0
        assert int(broker.slot_site_requests[0].sum()) == 200

    def test_outage_segments_respected_inside_slot(self):
        outage = (OutageWindow(start=0.5, end=1.0),)
        plan, broker = self.make_broker(outages=(outage, ()))
        self.slot(broker, 0.0, 100_000.0, (2.0, 2.0))
        late = plan.arrival_ms >= 50_000.0
        assert np.all(broker.site_ids[late] == 1)
        assert np.any(broker.site_ids[~late] == 0)


class TestGroupAwareBroker:
    """The acceleration-group-resolved live-state protocol (and its
    ``fleet`` degenerate mode)."""

    def make_broker(self, *, signal="per-group", spillover=None, count=200,
                    group_types=None):
        from repro.multisite.broker import DynamicBroker
        from repro.scenarios.plan import RequestPlan

        if group_types is None:
            group_types = (
                {1: "t2.nano", 2: "m4.4xlarge"},   # lean low tier, big high tier
                {1: "t2.medium", 2: "t2.nano"},    # inverted mix
            )
        federation = MultiSiteSpec(
            sites=(
                SiteSpec(name="lean", cloud=CloudSpec(group_types=group_types[0]),
                         wan_rtt_ms=5.0, weight=1.0),
                SiteSpec(name="roomy", cloud=CloudSpec(group_types=group_types[1]),
                         wan_rtt_ms=30.0, weight=1.0),
            ),
            policy="dynamic-load",
            spillover=spillover,
            capacity_signal=signal,
        )
        plan = RequestPlan(
            arrival_ms=np.linspace(0.0, 100_000.0, count, endpoint=False),
            user_ids=np.arange(count) % 10,
            work_units=np.full(count, 350.0),
            jitter_z=np.zeros(count),
            t1_ms=np.zeros(count),
            t2_ms=np.zeros(count),
            routing_ms=np.zeros(count),
        )
        broker = DynamicBroker(
            plan=plan,
            users=10,
            federation=federation,
            duration_ms=100_000.0,
            access_rtt_ms=[40.0, 40.0],
        )
        return plan, broker

    def slot(self, broker, start, end, capacity, admission=None):
        capacity = np.asarray(capacity, dtype=float)
        if admission is None:
            admission = np.full_like(capacity, 10_000, dtype=np.int64)
        return broker.broker_slot(
            start, end,
            capacity_work_per_ms=capacity,
            remaining_instance_cap=np.zeros(2, dtype=np.int64),
            admission_capacity=np.asarray(admission, dtype=np.int64),
        )

    def test_group_axis_and_clamp_columns(self):
        from repro.multisite.broker import clamp_column_table

        _, broker = self.make_broker()
        assert broker.groups == (1, 2)
        table = clamp_column_table(broker.sites, broker.groups)
        # User group 1 serves at group 1 (column 0) on both sites, group 2 at
        # column 1; group 0 clamps up to the lowest declared group.
        np.testing.assert_array_equal(table[:, 0], [0, 0])
        np.testing.assert_array_equal(table[:, 1], [0, 0])
        np.testing.assert_array_equal(table[:, 2], [1, 1])

    def test_clamp_column_table_on_high_tier_only_site(self):
        from repro.multisite.broker import clamp_column_table

        sites = (
            SiteSpec(name="full", cloud=CloudSpec(group_types={1: "t2.nano", 2: "t2.medium"})),
            SiteSpec(name="high", cloud=CloudSpec(group_types={2: "t2.large"})),
        )
        table = clamp_column_table(sites, (1, 2))
        # Un-promoted traffic clamps *up* on the high-tier-only site: its
        # group-2 column is what group-1 requests would actually use there.
        assert table[1, 1] == 1
        assert table[0, 1] == 0

    def test_reweighting_follows_eligible_group_capacity(self):
        # All users are un-promoted (group 1).  Site `lean` has a huge
        # group-2 column that group-1 traffic cannot touch; its group-1
        # column is tiny, so its backlog persists and its share collapses —
        # while the fleet-scalar signal (same matrices, summed) drains the
        # backlog at the fleet rate and keeps splitting evenly.
        capacity = [[0.2, 50.0], [5.0, 0.2]]
        _, grouped = self.make_broker()
        self.slot(grouped, 0.0, 50_000.0, capacity)
        self.slot(grouped, 50_000.0, 100_000.0, capacity)
        _, fleet = self.make_broker(signal="fleet")
        self.slot(fleet, 0.0, 50_000.0, capacity)
        self.slot(fleet, 50_000.0, 100_000.0, capacity)
        grouped_second = grouped.slot_site_requests[1]
        fleet_second = fleet.slot_site_requests[1]
        assert int(fleet_second[0]) == pytest.approx(int(fleet_second[1]), abs=1)
        assert int(grouped_second[0]) < int(fleet_second[0])
        states = grouped.load_history[1]
        assert states[0].backlog_by_group[0] > 0.0
        assert states[0].backlog_by_group[1] == 0.0

    def test_per_group_snapshot_fields(self):
        _, broker = self.make_broker()
        capacity = np.asarray([[1.0, 40.0], [7.5, 3.0]])
        admission = np.asarray([[120, 960], [240, 120]])
        broker.broker_slot(
            0.0, 50_000.0,
            capacity_work_per_ms=capacity,
            remaining_instance_cap=np.asarray([3, 1], dtype=np.int64),
            admission_capacity=admission,
        )
        states = broker.load_history[0]
        for index, state in enumerate(states):
            assert state.groups == (1, 2)
            assert state.capacity_by_group == tuple(capacity[index])
            assert state.admission_by_group == tuple(int(v) for v in admission[index])
            assert state.capacity_work_per_ms == pytest.approx(capacity[index].sum())
            assert state.admission_capacity_requests == int(admission[index].sum())
            assert state.backlog_work_units == pytest.approx(
                sum(state.backlog_by_group)
            )
            assert state.in_flight_requests == pytest.approx(
                sum(state.in_flight_by_group)
            )

    def test_fleet_signal_collapses_snapshot_to_scalars(self):
        _, broker = self.make_broker(signal="fleet")
        capacity = np.asarray([[1.0, 40.0], [7.5, 3.0]])
        self.slot(broker, 0.0, 50_000.0, capacity)
        states = broker.load_history[0]
        assert states[0].groups == ()
        assert states[0].capacity_by_group == ()
        assert states[0].capacity_work_per_ms == pytest.approx(41.0)
        assert states[1].capacity_work_per_ms == pytest.approx(10.5)

    def test_per_group_spillover_guard(self):
        # Site lean's group-1 column saturates immediately (admission 20,
        # queue limit 10) while its group-2 column is huge; under the
        # group-resolved guard the overflow spills to roomy's group-1
        # column, which has room.
        spillover = SpilloverSpec(queue_limit_fraction=0.5)
        _, grouped = self.make_broker(spillover=spillover)
        capacity = [[0.01, 50.0], [5.0, 5.0]]
        admission = [[20, 100_000], [100_000, 100_000]]
        self.slot(grouped, 0.0, 100_000.0, capacity, admission)
        assert grouped.requests_spilled > 0
        assert np.all(grouped.site_ids[grouped.spilled] == 1)
        # The fleet guard sums the admission row (100 020) and never trips.
        _, fleet = self.make_broker(signal="fleet", spillover=spillover)
        self.slot(fleet, 0.0, 100_000.0, capacity, admission)
        assert fleet.requests_spilled == 0

    def test_matrix_shape_validation(self):
        _, broker = self.make_broker()
        with pytest.raises(ValueError, match="one column per operating group"):
            self.slot(broker, 0.0, 50_000.0, [1.0, 2.0])  # 1-D on a 2-group axis
        with pytest.raises(ValueError, match="one row per site"):
            self.slot(broker, 0.0, 50_000.0, [[1.0, 2.0]])

    def test_group_of_user_length_validated(self):
        _, broker = self.make_broker()
        with pytest.raises(ValueError, match="one group per user"):
            broker.broker_slot(
                0.0, 50_000.0,
                capacity_work_per_ms=np.ones((2, 2)),
                admission_capacity=np.ones((2, 2), dtype=np.int64),
                group_of_user=np.zeros(3, dtype=np.int64),
            )

    def test_promoted_users_weighted_by_their_own_group(self):
        # Group-2 users route by the group-2 columns: lean's huge high tier
        # attracts them even while its group-1 column is starved.
        _, broker = self.make_broker()
        capacity = [[0.2, 50.0], [5.0, 0.2]]
        groups = np.full(10, 2, dtype=np.int64)  # everyone promoted
        broker.broker_slot(
            0.0, 50_000.0,
            capacity_work_per_ms=np.asarray(capacity, dtype=float),
            admission_capacity=np.full((2, 2), 10_000, dtype=np.int64),
            group_of_user=groups,
        )
        broker.broker_slot(
            50_000.0, 100_000.0,
            capacity_work_per_ms=np.asarray(capacity, dtype=float),
            admission_capacity=np.full((2, 2), 10_000, dtype=np.int64),
            group_of_user=groups,
        )
        second = broker.slot_site_requests[1]
        # lean's group-2 backlog cleared (50 wu/ms), roomy's group-2 lags.
        assert int(second[0]) > int(second[1])

    def test_fleet_signal_on_single_group_matches_per_group(self):
        single = ({1: "t2.nano"}, {1: "t2.medium"})
        _, grouped = self.make_broker(group_types=single)
        _, fleet = self.make_broker(group_types=single, signal="fleet")
        for broker in (grouped, fleet):
            self.slot(broker, 0.0, 50_000.0, [[0.5], [5.0]])
            self.slot(broker, 50_000.0, 100_000.0, [[0.5], [5.0]])
        np.testing.assert_array_equal(grouped.site_ids, fleet.site_ids)


def scalar_spill_walk(
    broker,
    lo,
    proposals,
    request_keys,
    available,
    elapsed_in_slot,
    used_requests,
    used_work,
    queue_limit,
    drain_rate,
):
    """Reference: the request-by-request spill walk the chunked one replaces."""
    hi = lo + proposals.size
    work = broker.plan.work_units[lo:hi]
    homes = broker.home_site_of_user[broker.plan.user_ids[lo:hi]]

    def projected_queue(site, col, t_rel):
        return max(
            0.0,
            broker.backlog_requests[site, col]
            + used_requests[site, col]
            - drain_rate[site, col] * t_rel,
        )

    for k in range(proposals.size):
        site = int(proposals[k])
        if site == UNROUTED:
            continue
        group = int(request_keys[k])
        col = int(broker._clamp_col[site, group])
        t_rel = float(elapsed_in_slot[k])
        if projected_queue(site, col, t_rel) + 1.0 <= queue_limit[site, col]:
            used_requests[site, col] += 1.0
            used_work[site, col] += float(work[k])
            continue
        for candidate in broker._spill_rank[int(homes[k])]:
            candidate = int(candidate)
            if candidate == site or not available[candidate]:
                continue
            ccol = int(broker._clamp_col[candidate, group])
            if projected_queue(candidate, ccol, t_rel) + 1.0 <= queue_limit[candidate, ccol]:
                proposals[k] = candidate
                used_requests[candidate, ccol] += 1.0
                used_work[candidate, ccol] += float(work[k])
                broker.spilled[lo + k] = True
                break
        else:
            # Nowhere has room: the request stays where it was proposed.
            broker.stayed_put += 1
            used_requests[site, col] += 1.0
            used_work[site, col] += float(work[k])


class ScalarSpillBroker(DynamicBroker):
    """The dynamic broker with the reference walk in place of the chunked one."""

    _spill_walk = scalar_spill_walk
    stayed_put = 0


#: Instance types per acceleration group, distinct across groups.
DIFF_GROUP_TYPES = {1: "t2.nano", 2: "t2.medium", 3: "m4.4xlarge"}
DIFF_DURATION_MS = 400_000.0
DIFF_SLOT_MS = 100_000.0
DIFF_USERS = 16


@st.composite
def spill_federations(draw):
    """1–4 sites over 1–3 groups with dense spills and mid-slot outages."""
    group_count = draw(st.integers(min_value=1, max_value=3))
    site_count = draw(st.integers(min_value=1, max_value=4))
    # Outage edges off the slot grid, so windows split slots; a shared
    # blackout leaves segments with every site down.
    fractions = st.sampled_from([0.05 * step for step in range(20)])
    blackout = None
    if draw(st.booleans()):
        start = draw(fractions)
        blackout = OutageWindow(start=start, end=min(1.0, start + 0.15))
    sites = []
    for index in range(site_count):
        groups = draw(
            st.lists(
                st.integers(min_value=1, max_value=group_count),
                min_size=1, max_size=group_count, unique=True,
            )
        )
        outages = []
        if draw(st.booleans()):
            start = draw(fractions)
            outages.append(OutageWindow(start=start, end=min(1.0, start + 0.2)))
        if blackout is not None:
            outages.append(blackout)
        sites.append(
            SiteSpec(
                name=f"s{index}",
                cloud=CloudSpec(
                    group_types={group: DIFF_GROUP_TYPES[group] for group in groups},
                    instance_cap=4,
                ),
                wan_rtt_ms=float(draw(st.integers(min_value=0, max_value=60))),
                weight=float(draw(st.integers(min_value=1, max_value=8))),
                population_share=float(draw(st.integers(min_value=1, max_value=4))),
                outages=tuple(outages),
            )
        )
    spillover = SpilloverSpec(
        queue_limit_fraction=draw(st.floats(min_value=0.02, max_value=1.0)),
        prefer=draw(st.sampled_from(["nearest-rtt", "cheapest"])),
    )
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        spillover = None  # the walk then admits every request where proposed
    return MultiSiteSpec(
        sites=tuple(sites),
        policy="dynamic-load",
        spillover=spillover,
        capacity_signal=draw(st.sampled_from(["per-group", "fleet"])),
    )


def run_differential(broker_class, federation, seed, count, promoted):
    from repro.scenarios.plan import RequestPlan

    rng = np.random.default_rng(seed)
    plan = RequestPlan(
        arrival_ms=np.sort(rng.uniform(0.0, DIFF_DURATION_MS, size=count)),
        user_ids=rng.integers(0, DIFF_USERS, size=count),
        work_units=rng.uniform(100.0, 600.0, size=count),
        jitter_z=np.zeros(count),
        t1_ms=np.zeros(count),
        t2_ms=np.zeros(count),
        routing_ms=np.zeros(count),
    )
    site_count = len(federation.sites)
    columns = len(federation.group_axis)
    broker = broker_class(
        plan=plan,
        users=DIFF_USERS,
        federation=federation,
        duration_ms=DIFF_DURATION_MS,
        access_rtt_ms=list(rng.uniform(10.0, 60.0, size=site_count)),
    )
    for start in np.arange(0.0, DIFF_DURATION_MS, DIFF_SLOT_MS):
        # Some columns lose all capacity; small admissions keep spills dense.
        capacity = rng.uniform(0.0, 6.0, size=(site_count, columns))
        capacity *= rng.random((site_count, columns)) > 0.2
        group_of_user = None
        if promoted:
            group_of_user = rng.integers(0, max(federation.group_axis) + 2, DIFF_USERS)
        broker.broker_slot(
            float(start),
            float(start + DIFF_SLOT_MS),
            capacity_work_per_ms=capacity,
            remaining_instance_cap=np.zeros(site_count, dtype=np.int64),
            admission_capacity=rng.integers(0, 60, size=(site_count, columns)),
            group_of_user=group_of_user,
        )
    return broker


def assert_bitwise_equal(left, right):
    assert left.tobytes() == right.tobytes()
    assert left.dtype == right.dtype and left.shape == right.shape


def wan_penalties(broker):
    """The WAN penalty each request pays at its serving site (0 if unrouted)."""
    routed = np.flatnonzero(broker.site_ids >= 0)
    penalties = np.zeros(broker.site_ids.size)
    penalties[routed] = broker.penalty[
        broker.home_site_of_user[broker.plan.user_ids[routed]],
        broker.site_ids[routed],
    ]
    return penalties


def assert_same_walk(chunked, scalar):
    for name in ("site_ids", "spilled", "backlog_work", "backlog_requests"):
        assert_bitwise_equal(getattr(chunked, name), getattr(scalar, name))
    assert_bitwise_equal(wan_penalties(chunked), wan_penalties(scalar))
    assert len(chunked.slot_site_requests) == len(scalar.slot_site_requests)
    for left, right in zip(chunked.slot_site_requests, scalar.slot_site_requests):
        assert_bitwise_equal(left, right)
    assert chunked.slot_spilled == scalar.slot_spilled
    assert chunked.requests_spilled == scalar.requests_spilled
    assert repr(chunked.load_history) == repr(scalar.load_history)


class TestChunkedSpillWalkMatchesScalar:
    """The chunked spill walk decides exactly as the request-by-request one."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        federation=spill_federations(),
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.integers(min_value=0, max_value=1500),
        promoted=st.booleans(),
    )
    def test_matches_scalar_reference(self, federation, seed, count, promoted):
        chunked = run_differential(DynamicBroker, federation, seed, count, promoted)
        scalar = run_differential(ScalarSpillBroker, federation, seed, count, promoted)
        assert_same_walk(chunked, scalar)

    def test_dense_spills_are_exercised(self):
        # Guard against a generator that never spills: one hand-picked
        # federation where about a quarter of the requests spill.
        federation = MultiSiteSpec(
            sites=(
                SiteSpec(name="a", cloud=CloudSpec(group_types={1: "t2.nano"})),
                SiteSpec(name="b", cloud=CloudSpec(group_types={1: "t2.nano"}),
                         wan_rtt_ms=20.0),
            ),
            policy="dynamic-load",
            spillover=SpilloverSpec(queue_limit_fraction=0.02),
        )
        chunked = run_differential(DynamicBroker, federation, 3, 1200, False)
        scalar = run_differential(ScalarSpillBroker, federation, 3, 1200, False)
        assert chunked.requests_spilled > 200
        assert_bitwise_equal(chunked.site_ids, scalar.site_ids)
        assert chunked.slot_spilled == scalar.slot_spilled

    def test_federation_wide_overload_stays_put(self):
        # Every site's queues fill up: nearly every request finds no room
        # anywhere, so the chunked walk settles it on its scalar path and it
        # stays where it was proposed; a few spill as the queues drain.
        federation = MultiSiteSpec(
            sites=tuple(
                SiteSpec(name=name, cloud=CloudSpec(group_types={1: "t2.nano"}),
                         wan_rtt_ms=rtt)
                for name, rtt in (("a", 0.0), ("b", 20.0), ("c", 45.0))
            ),
            policy="dynamic-load",
            spillover=SpilloverSpec(queue_limit_fraction=0.5),
        )
        chunked = run_differential(DynamicBroker, federation, 5, 12000, False)
        scalar = run_differential(ScalarSpillBroker, federation, 5, 12000, False)
        assert scalar.stayed_put > 0.95 * 12000
        assert chunked.requests_spilled > 0
        assert_same_walk(chunked, scalar)
