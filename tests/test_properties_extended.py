"""Property-based tests for the trace store's time-slot bucketing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.traces import TraceLog


# --- trace log slotting --------------------------------------------------------

trace_entries = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10_000_000.0, allow_nan=False),  # timestamp
        st.integers(min_value=0, max_value=30),                              # user
        st.integers(min_value=0, max_value=4),                               # group
    ),
    min_size=1,
    max_size=80,
)


class TestTraceLogSlottingProperties:
    @given(entries=trace_entries, slot_hours=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_slotting_conserves_user_group_observations(self, entries, slot_hours):
        log = TraceLog()
        for timestamp, user, group in entries:
            log.log(timestamp, user, group, 1.0, 100.0)
        slot_length_ms = slot_hours * 3_600_000.0
        last = max(timestamp for timestamp, _, _ in entries)
        slots = [
            log.window(start, start + slot_length_ms)
            for start in np.arange(0.0, last + slot_length_ms, slot_length_ms)
        ]
        # Every (group, user) pair observed in the log appears in exactly the
        # union of the slot windows, and no window invents users.
        slotted_pairs = {
            (record.acceleration_group, record.user_id)
            for window in slots
            for record in window
        }
        logged_pairs = {(record.acceleration_group, record.user_id) for record in log}
        assert slotted_pairs == logged_pairs
