"""Property-based tests (hypothesis) for the core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from milp_reference import assert_matches_reference

from repro.core.allocation import AllocationError, AllocationProblem, IlpAllocator, InstanceOption
from repro.core.distance import group_edit_distance, slot_edit_distance
from repro.core.prediction import WorkloadPredictor, prediction_accuracy
from repro.core.timeslots import TimeSlot, TimeSlotHistory
from repro.cloud.performance import PerformanceProfile
from repro.simulation.stats import linear_percentiles
from repro.simulation.engine import SimulationEngine
from repro.simulation.queues import ProcessorSharingServer

# --- strategies -------------------------------------------------------------

user_sets = st.sets(st.integers(min_value=0, max_value=50), max_size=12)
slot_groups = st.dictionaries(
    keys=st.integers(min_value=0, max_value=4), values=user_sets, min_size=1, max_size=4
)


def make_slot(index, groups):
    return TimeSlot.from_user_sets(index, groups)


# --- edit distance metric properties -----------------------------------------


class TestEditDistanceProperties:
    @given(a=user_sets, b=user_sets)
    def test_group_distance_symmetric(self, a, b):
        assert group_edit_distance(a, b) == group_edit_distance(b, a)

    @given(a=user_sets)
    def test_group_distance_identity(self, a):
        assert group_edit_distance(a, a) == 0

    @given(a=user_sets, b=user_sets, c=user_sets)
    def test_group_distance_triangle_inequality(self, a, b, c):
        assert group_edit_distance(a, c) <= group_edit_distance(a, b) + group_edit_distance(b, c)

    @given(a=slot_groups, b=slot_groups)
    def test_slot_distance_symmetric_and_nonnegative(self, a, b):
        x, y = make_slot(0, a), make_slot(1, b)
        assert slot_edit_distance(x, y) == slot_edit_distance(y, x) >= 0

    @given(a=slot_groups, b=slot_groups, c=slot_groups)
    def test_slot_distance_triangle_inequality(self, a, b, c):
        x, y, z = make_slot(0, a), make_slot(1, b), make_slot(2, c)
        assert slot_edit_distance(x, z) <= slot_edit_distance(x, y) + slot_edit_distance(y, z)

    @given(a=slot_groups, b=slot_groups)
    def test_prediction_accuracy_in_unit_interval(self, a, b):
        x, y = make_slot(0, a), make_slot(1, b)
        assert 0.0 <= prediction_accuracy(x, y) <= 1.0

    @given(a=slot_groups)
    def test_prediction_accuracy_perfect_on_identical_slots(self, a):
        x, y = make_slot(0, a), make_slot(1, a)
        assert prediction_accuracy(x, y) == 1.0


# --- predictor properties -----------------------------------------------------


class TestPredictorProperties:
    @given(history_groups=st.lists(slot_groups, min_size=2, max_size=8), current=slot_groups)
    @settings(max_examples=50)
    def test_nearest_prediction_is_always_a_historical_slot(self, history_groups, current):
        history = TimeSlotHistory()
        for index, groups in enumerate(history_groups):
            history.append(make_slot(index, groups))
        predictor = WorkloadPredictor(history, strategy="nearest", min_history=1)
        outcome = predictor.predict(make_slot(99, current))
        assert outcome.predicted_slot in history.slots
        # The matched distance is the minimum over the knowledge base.
        assert outcome.distance == min(outcome.distances.values())

    @given(history_groups=st.lists(slot_groups, min_size=2, max_size=8), current=slot_groups)
    @settings(max_examples=50)
    def test_successor_prediction_is_also_historical(self, history_groups, current):
        history = TimeSlotHistory()
        for index, groups in enumerate(history_groups):
            history.append(make_slot(index, groups))
        predictor = WorkloadPredictor(history, strategy="successor", min_history=1)
        outcome = predictor.predict(make_slot(99, current))
        assert outcome.predicted_slot in history.slots


# --- allocation properties ----------------------------------------------------

option_strategy = st.builds(
    InstanceOption,
    type_name=st.sampled_from(["a", "b", "c", "d"]),
    acceleration_group=st.integers(min_value=1, max_value=3),
    cost_per_hour=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    capacity=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
)


class TestAllocationProperties:
    @given(
        options=st.lists(option_strategy, min_size=1, max_size=4, unique_by=lambda o: o.type_name),
        workloads=st.dictionaries(
            keys=st.integers(min_value=1, max_value=3),
            values=st.integers(min_value=0, max_value=60),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_plans_are_feasible_and_within_cap_or_error(self, options, workloads):
        problem = AllocationProblem(options=tuple(options), group_workloads=workloads, instance_cap=20)
        allocator = IlpAllocator()
        try:
            plan = allocator.allocate(problem)
        except AllocationError:
            return
        assert plan.feasible
        assert plan.total_instances <= 20
        assert plan.total_cost >= 0.0
        for group in problem.demanded_groups():
            assert plan.group_capacities.get(group, 0.0) > workloads[group]

    @given(
        workloads=st.dictionaries(
            keys=st.integers(min_value=1, max_value=2),
            values=st.integers(min_value=0, max_value=40),
            min_size=1,
            max_size=2,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_scipy_and_fallback_agree_on_optimal_cost(self, workloads):
        options = (
            InstanceOption("nano", 1, 0.0063, 10.0),
            InstanceOption("small", 1, 0.025, 25.0),
            InstanceOption("large", 2, 0.101, 40.0),
        )
        problem = AllocationProblem(options=options, group_workloads=workloads, instance_cap=20)
        assert_matches_reference(IlpAllocator(), problem)

    @given(
        workloads=st.dictionaries(
            keys=st.integers(min_value=1, max_value=2),
            values=st.integers(min_value=1, max_value=30),
            min_size=1,
            max_size=2,
        ),
        scale=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_cost_is_monotone_in_workload(self, workloads, scale):
        options = (
            InstanceOption("nano", 1, 0.0063, 10.0),
            InstanceOption("large", 2, 0.101, 40.0),
        )
        small = AllocationProblem(options=options, group_workloads=workloads, instance_cap=1000)
        big = AllocationProblem(
            options=options,
            group_workloads={g: w * scale for g, w in workloads.items()},
            instance_cap=1000,
        )
        allocator = IlpAllocator()
        assert allocator.allocate(big).total_cost >= allocator.allocate(small).total_cost


# --- performance profile properties --------------------------------------------


class TestPerformanceProfileProperties:
    @given(
        speed=st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
        cores=st.floats(min_value=1.0, max_value=64.0, allow_nan=False),
        work=st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
        concurrency=st.integers(min_value=1, max_value=200),
    )
    def test_service_time_positive_and_monotone(self, speed, cores, work, concurrency):
        profile = PerformanceProfile(speed_factor=speed, effective_cores=cores)
        time_low = profile.service_time_ms(work, concurrency)
        time_high = profile.service_time_ms(work, concurrency + 10)
        assert time_low > 0
        assert time_high >= time_low

    @given(
        speed=st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
        cores=st.floats(min_value=1.0, max_value=64.0, allow_nan=False),
        work=st.floats(min_value=10.0, max_value=3000.0, allow_nan=False),
        threshold=st.floats(min_value=50.0, max_value=10_000.0, allow_nan=False),
    )
    def test_capacity_is_consistent_with_service_time(self, speed, cores, work, threshold):
        profile = PerformanceProfile(speed_factor=speed, effective_cores=cores)
        capacity = profile.capacity_under_threshold(work, threshold)
        if capacity == 0:
            assert profile.service_time_ms(work, 1) > threshold
        else:
            assert profile.service_time_ms(work, capacity) <= threshold + 1e-6


# --- statistics and queueing properties ----------------------------------------


class TestPercentileProperties:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        percents=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
    )
    def test_linear_percentiles_match_numpy_bit_for_bit(self, values, percents):
        expected = [float(np.percentile(values, p)) for p in percents]
        assert linear_percentiles(np.asarray(values), percents) == expected


class TestProcessorSharingProperties:
    @given(
        works=st.lists(st.floats(min_value=1.0, max_value=500.0, allow_nan=False), min_size=1, max_size=12),
        cores=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_work_conservation(self, works, cores):
        """The last completion can never beat the single-core work bound nor
        finish before the longest job could on its own."""
        engine = SimulationEngine()
        server = ProcessorSharingServer(engine, service_rate_per_core=1.0, cores=cores, name="ps")
        completions = []
        for work in works:
            server.submit(work, lambda s: completions.append(engine.now_ms))
        engine.run()
        assert len(completions) == len(works)
        makespan = max(completions)
        assert makespan >= max(works) - 1e-6
        assert makespan >= sum(works) / cores - 1e-6
        assert makespan <= sum(works) + 1e-6
