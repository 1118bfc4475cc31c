"""Property-based tests for the trace store, pricing, offloading state and
parallelization extensions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import get_instance_type
from repro.cloud.parallelization import ParallelizableTask, parallel_execution_time_ms, speedup_curve
from repro.core.allocation import InstanceOption
from repro.core.pricing import AccelerationPlan, CaaSPricingModel
from repro.mobile.tasks import OffloadableTask
from repro.offloading.state import ApplicationState, deserialize_state, serialize_state
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
        slots = log.slot_workloads(slot_length_ms)
        # Every (group, user) pair observed in the log appears in exactly the
        # union of the slots, and no slot invents users.
        slotted_pairs = {
            (group, user)
            for slot in slots
            for group, users in slot.items()
            for user in users
        }
        logged_pairs = {(record.acceleration_group, record.user_id) for record in log}
        assert slotted_pairs == logged_pairs

    @given(entries=trace_entries)
    @settings(max_examples=40, deadline=None)
    def test_slot_count_covers_time_span(self, entries):
        log = TraceLog()
        for timestamp, user, group in entries:
            log.log(timestamp, user, group, 1.0, 100.0)
        slots = log.hourly_slot_workloads()
        assert len(slots) >= 1
        assert (len(slots) - 1) * 3_600_000.0 <= log.time_span_ms() + 3_600_000.0


# --- CaaS pricing ---------------------------------------------------------------

OPTIONS = (
    InstanceOption("t2.nano", acceleration_group=1, cost_per_hour=0.0063, capacity=10.0),
    InstanceOption("t2.large", acceleration_group=2, cost_per_hour=0.101, capacity=40.0),
)
PLANS = (
    AccelerationPlan("basic", acceleration_group=1, monthly_price_per_user=0.99),
    AccelerationPlan("fast", acceleration_group=2, monthly_price_per_user=2.99),
)


class TestPricingProperties:
    @given(
        basic=st.integers(min_value=0, max_value=300),
        fast=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_revenue_is_linear_and_cost_monotone(self, basic, fast):
        model = CaaSPricingModel(list(PLANS), list(OPTIONS), instance_cap=200)
        report = model.monthly_report({1: basic, 2: fast})
        assert report.monthly_revenue == pytest.approx(0.99 * basic + 2.99 * fast)
        bigger = model.monthly_report({1: basic + 50, 2: fast})
        assert bigger.monthly_provisioning_cost >= report.monthly_provisioning_cost - 1e-9


# --- offloading state -------------------------------------------------------------

json_scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)


class TestApplicationStateProperties:
    @given(
        name=st.text(min_size=1, max_size=20),
        args=st.lists(json_scalars, max_size=6),
        kwargs=st.dictionaries(st.text(min_size=1, max_size=8), json_scalars, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_serialization_round_trip(self, name, args, kwargs):
        state = ApplicationState(method_name=name, args=tuple(args), kwargs=kwargs)
        restored = deserialize_state(serialize_state(state))
        assert restored.method_name == name
        assert list(restored.args) == list(args)
        assert dict(restored.kwargs) == dict(kwargs)


# --- parallelization ---------------------------------------------------------------


class TestParallelizationProperties:
    @given(
        parallel_fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        workers=st.integers(min_value=1, max_value=40),
        work=st.floats(min_value=50.0, max_value=5000.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_speedup_bounded_by_workers_and_amdahl(self, parallel_fraction, workers, work):
        task = ParallelizableTask(
            task=OffloadableTask(name="t", work_units=work, work_variability=0.0),
            parallel_fraction=parallel_fraction,
            split_overhead_ms=5.0,
            merge_overhead_ms=5.0,
        )
        profile = get_instance_type("t2.large").profile
        speedup = speedup_curve(task, profile, [workers])[workers]
        assert speedup <= workers + 1e-9
        if parallel_fraction < 1.0:
            amdahl_limit = 1.0 / (1.0 - parallel_fraction)
            assert speedup <= amdahl_limit + 1e-9
        assert parallel_execution_time_ms(task, profile, workers) > 0
