"""The control-plane slot step against the per-request trace log it replaced.

Every executor records a slot through ``Autoscaler.run_slot``.  The event
executor hands it the records each site's accelerator delivered since the
previous boundary, observed when they arrived at or after the slot start.
It used to log a trace row per delivered request and rescan the whole log at
every boundary for the rows that arrived in ``[start, end)``.  That rescan is
kept here as the reference: both must record the same slots, in the same
group order wherever the reference's order was ascending.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG
from repro.cloud.provisioner import Provisioner
from repro.core.allocation import InstanceOption
from repro.core.model import AdaptiveModel
from repro.core.timeslots import TimeSlot
from repro.sdn.accelerator import DeliveryBuffer, RequestRecord, SDNAccelerator, served_columns
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.engine import SimulationEngine

SLOT_MS = 10.0
#: The model's groups; requests served by groups 0, 3 and 4 lie outside them.
OPTIONS = [
    InstanceOption("t2.nano", acceleration_group=1, cost_per_hour=0.0063, capacity=10.0),
    InstanceOption("t2.large", acceleration_group=2, cost_per_hour=0.101, capacity=40.0),
]


def _reference_slot(model, log, start_ms, end_ms):
    """The old ``AdaptiveModel.observe_trace_window`` over ``TraceLog.window``.

    ``log`` holds ``(timestamp, user, group)`` rows in delivery order, every
    row delivered so far.
    """
    window = [row for row in log if start_ms <= row[0] < end_ms]
    users_per_group = {group: set() for group in model.groups()}
    for _, user, group in window:
        users_per_group.setdefault(group, set()).add(user)
    return TimeSlot.from_user_sets(len(model.history), users_per_group)


def _run(requests, *, sites, periods):
    """Deliver ``requests`` through one shared buffer and slot them both ways.

    ``requests`` are ``(site, arrival, delivered, user, group)`` in push
    order.  Returns, per site, the live step's slots and the reference's.
    """
    engine = SimulationEngine()
    buffer = DeliveryBuffer()
    accelerators = [
        SDNAccelerator(engine, BackendPool(), delivery_buffer=buffer) for _ in range(sites)
    ]
    for request_id, (site, arrival, delivered, user, group) in enumerate(requests):
        record = RequestRecord(request_id, user, group, arrival, delivered, True, None)
        buffer.push(delivered, accelerators[site], record, None)
    scalers = [
        Autoscaler(
            AdaptiveModel(OPTIONS),
            Provisioner(engine, DEFAULT_CATALOG),
            BackendPool(),
            minimum_per_group=0,
        )
        for _ in range(sites)
    ]
    reference_models = [AdaptiveModel(OPTIONS) for _ in range(sites)]
    cursors = [0] * sites
    for period in range(periods):
        start, end = period * SLOT_MS, (period + 1) * SLOT_MS
        buffer.drain_until(end)
        for site in range(sites):
            records = accelerators[site].records
            fresh = records[cursors[site]:]
            cursors[site] = len(records)
            scalers[site].run_slot(*served_columns(fresh, start), end)
            log = [(r.arrival_ms, r.user_id, r.acceleration_group) for r in records]
            model = reference_models[site]
            model.observe_slot(_reference_slot(model, log, start, end))
    return [
        (list(scaler.model.history), list(model.history))
        for scaler, model in zip(scalers, reference_models)
    ]


def _assert_same_slots(runs):
    groups = AdaptiveModel(OPTIONS).groups()
    for live, reference in runs:
        assert live == reference  # same indices, same user set per group
        for live_slot, reference_slot in zip(live, reference):
            # The model's groups first, in its order; then the groups outside
            # it, ascending.  The reference added those in first-delivery
            # order, which is the same order unless two or more of them were
            # first delivered descending; nothing reads the order of groups
            # outside the model.
            outside = [group for group in reference_slot.groups if group not in groups]
            expected = groups + sorted(outside)
            if outside == sorted(outside):
                assert expected == list(reference_slot.groups)
            assert list(live_slot.groups) == expected


#: Instants on a quarter-slot grid, so arrivals and deliveries often land
#: exactly on a boundary.
_quarters = st.integers(min_value=0, max_value=20).map(lambda q: q * SLOT_MS / 4)


@st.composite
def _requests(draw):
    sites = draw(st.integers(min_value=1, max_value=2))
    count = draw(st.integers(min_value=0, max_value=40))
    requests = []
    for _ in range(count):
        arrival = draw(_quarters)
        # In flight for up to two slots: some are delivered in a later slot
        # than they arrived in, some exactly at a boundary, some never.
        delivered = arrival + draw(st.integers(min_value=0, max_value=8)) * SLOT_MS / 4
        requests.append((
            draw(st.integers(min_value=0, max_value=sites - 1)),
            arrival,
            delivered,
            draw(st.integers(min_value=0, max_value=6)),
            draw(st.integers(min_value=0, max_value=4)),
        ))
    return sites, requests


class TestSlotStepOracle:
    @given(case=_requests(), periods=st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_same_slots_as_the_trace_log_rescan(self, case, periods):
        sites, requests = case
        _assert_same_slots(_run(requests, sites=sites, periods=periods))

    def test_in_flight_records_count_in_no_later_slot(self):
        # User 1 arrives in slot 0 and is delivered in slot 1; user 2 arrives
        # and is delivered in slot 1.
        runs = _run([(0, 8.0, 12.0, 1, 1), (0, 11.0, 12.0, 2, 1)], sites=1, periods=2)
        _assert_same_slots(runs)
        (live, _), = runs
        assert [slot.workload_vector() for slot in live] == [{1: 0, 2: 0}, {1: 1, 2: 0}]
        assert live[1].users_in_group(1) == {2}

    def test_delivery_exactly_at_the_boundary_lands_in_the_next_scan(self):
        runs = _run([(0, 5.0, 10.0, 1, 1), (0, 10.0, 10.0, 2, 2)], sites=1, periods=2)
        _assert_same_slots(runs)
        (live, _), = runs
        # User 1 arrived in slot 0 but was not delivered before its boundary.
        assert live[0].workload_vector() == {1: 0, 2: 0}
        assert live[1].users_in_group(2) == {2}

    def test_window_is_half_open(self):
        runs = _run(
            [(0, 0.0, 1.0, 1, 1), (0, 9.5, 9.75, 2, 1), (0, 10.0, 10.5, 3, 1)],
            sites=1, periods=2,
        )
        _assert_same_slots(runs)
        (live, _), = runs
        assert live[0].users_in_group(1) == {1, 2}
        assert live[1].users_in_group(1) == {3}

    def test_hourly_slot_workloads(self):
        # Slot 0 has users 1 and 2 in group 1; slot 1 has user 2 in group 2
        # and user 3 in group 1.
        runs = _run(
            [(0, 1.0, 2.0, 1, 1), (0, 2.0, 3.0, 2, 1),
             (0, 11.0, 12.0, 2, 2), (0, 12.0, 13.0, 3, 1)],
            sites=1, periods=2,
        )
        _assert_same_slots(runs)
        (live, _), = runs
        pairs = [{(g, u) for g, users in slot.groups.items() for u in users} for slot in live]
        assert pairs == [{(1, 1), (1, 2)}, {(1, 3), (2, 2)}]

    def test_slot_workloads_empty_log(self):
        runs = _run([], sites=1, periods=3)
        _assert_same_slots(runs)
        (live, _), = runs
        assert [slot.workload_vector() for slot in live] == [{1: 0, 2: 0}] * 3

    def test_group_outside_the_model(self):
        runs = _run([(0, 1.0, 2.0, 5, 3), (0, 2.0, 3.0, 6, 1)], sites=1, periods=1)
        _assert_same_slots(runs)
        (live, reference), = runs
        assert list(live[0].groups.items()) == list(reference[0].groups.items())
        assert list(live[0].groups) == [1, 2, 3]

    def test_groups_outside_the_model_are_ascending(self):
        # First delivered in the order 4, 0: the rescan kept that order.
        runs = _run([(0, 1.0, 2.0, 5, 4), (0, 2.0, 3.0, 6, 0)], sites=1, periods=1)
        _assert_same_slots(runs)
        (live, reference), = runs
        assert list(reference[0].groups) == [1, 2, 4, 0]
        assert list(live[0].groups) == [1, 2, 0, 4]

    def test_two_sites_sharing_one_buffer(self):
        runs = _run(
            [(1, 1.0, 12.0, 1, 1), (0, 2.0, 4.0, 2, 2), (1, 3.0, 5.0, 3, 1),
             (0, 11.0, 11.5, 4, 1)],
            sites=2, periods=2,
        )
        _assert_same_slots(runs)
        (first, _), (second, _) = runs
        assert [slot.users_in_group(2) for slot in first] == [{2}, set()]
        assert [slot.users_in_group(1) for slot in first] == [set(), {4}]
        assert [slot.users_in_group(1) for slot in second] == [{3}, set()]

