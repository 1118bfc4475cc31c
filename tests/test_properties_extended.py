"""Property-based tests for the control plane's time-slot bucketing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG
from repro.cloud.provisioner import Provisioner
from repro.core.allocation import InstanceOption
from repro.core.model import AdaptiveModel
from repro.sdn.accelerator import RequestRecord, served_columns
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.engine import SimulationEngine


# --- slotting delivered requests -----------------------------------------------

trace_entries = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10_000_000.0, allow_nan=False),  # arrival
        st.floats(min_value=0.0, max_value=3_000_000.0, allow_nan=False),   # in flight
        st.integers(min_value=0, max_value=30),                              # user
        st.integers(min_value=0, max_value=4),                               # group
    ),
    min_size=1,
    max_size=80,
)


def slot_through_the_live_step(records, slot_length_ms, periods):
    """Each boundary hands the records delivered since the previous one to
    ``Autoscaler.run_slot``, as the event executor does; returns the slots."""
    model = AdaptiveModel(
        [InstanceOption("t2.nano", acceleration_group=1, cost_per_hour=0.0063, capacity=10.0)],
        slot_length_ms=slot_length_ms,
    )
    engine = SimulationEngine()
    scaler = Autoscaler(
        model, Provisioner(engine, DEFAULT_CATALOG), BackendPool(), minimum_per_group=0
    )
    by_delivery = sorted(records, key=lambda record: record.completed_ms)
    cursor = 0
    for period in range(periods):
        start, end = period * slot_length_ms, (period + 1) * slot_length_ms
        upto = cursor
        while upto < len(by_delivery) and by_delivery[upto].completed_ms < end:
            upto += 1
        scaler.run_slot(*served_columns(by_delivery[cursor:upto], start), end)
        cursor = upto
    return list(model.history)


class TestTraceLogSlottingProperties:
    @given(entries=trace_entries, slot_hours=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_slotting_conserves_user_group_observations(self, entries, slot_hours):
        records = [
            RequestRecord(index, user, group, arrival, arrival + delay, True, None)
            for index, (arrival, delay, user, group) in enumerate(entries)
        ]
        slot_length_ms = slot_hours * 3_600_000.0
        last = max(record.completed_ms for record in records)
        periods = int(last // slot_length_ms) + 1
        slots = slot_through_the_live_step(records, slot_length_ms, periods)
        # Each slot holds exactly the (group, user) pairs of the requests that
        # arrived in it and were delivered before its boundary; no slot
        # invents users, and a pair delivered late is counted by no slot.
        for index, slot in enumerate(slots):
            start, end = index * slot_length_ms, (index + 1) * slot_length_ms
            expected = {
                (record.acceleration_group, record.user_id)
                for record in records
                if start <= record.arrival_ms < end and record.completed_ms < end
            }
            got = {(group, user) for group, users in slot.groups.items() for user in users}
            assert got == expected
