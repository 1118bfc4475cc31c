"""Tests for the ILP resource allocator and its baselines."""

import pytest
from milp_reference import assert_matches_reference

from repro.cloud.catalog import DEFAULT_CATALOG
from repro.core.allocation import (
    AllocationError,
    AllocationProblem,
    GreedyAllocator,
    IlpAllocator,
    InstanceOption,
    OverProvisioningAllocator,
    best_effort_plan,
    build_group_options,
    build_options_from_catalog,
)

NANO = InstanceOption("t2.nano", acceleration_group=1, cost_per_hour=0.0063, capacity=10.0)
SMALL = InstanceOption("t2.small", acceleration_group=1, cost_per_hour=0.025, capacity=12.0)
LARGE = InstanceOption("t2.large", acceleration_group=2, cost_per_hour=0.101, capacity=40.0)
M4 = InstanceOption("m4.4xlarge", acceleration_group=3, cost_per_hour=0.888, capacity=150.0)

OPTIONS = (NANO, SMALL, LARGE, M4)


class TestInstanceOption:
    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceOption("", 1, 0.1, 10.0)
        with pytest.raises(ValueError):
            InstanceOption("x", -1, 0.1, 10.0)
        with pytest.raises(ValueError):
            InstanceOption("x", 1, -0.1, 10.0)
        with pytest.raises(ValueError):
            InstanceOption("x", 1, 0.1, 0.0)


class TestAllocationProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            AllocationProblem(options=(), group_workloads={1: 1})
        with pytest.raises(ValueError):
            AllocationProblem(options=OPTIONS, group_workloads={1: -1})
        with pytest.raises(ValueError):
            AllocationProblem(options=OPTIONS, group_workloads={1: 1}, instance_cap=0)

    def test_options_for_group(self):
        problem = AllocationProblem(options=OPTIONS, group_workloads={1: 5})
        assert {o.type_name for o in problem.options_for_group(1)} == {"t2.nano", "t2.small"}
        assert problem.options_for_group(9) == []

    def test_demanded_groups_skips_zero_workload(self):
        problem = AllocationProblem(options=OPTIONS, group_workloads={1: 5, 2: 0, 3: 2})
        assert problem.demanded_groups() == [1, 3]

    def test_required_capacity_is_strictly_greater_than_workload(self):
        problem = AllocationProblem(options=OPTIONS, group_workloads={1: 10})
        assert problem.required_capacity(1) > 10.0
        relaxed = AllocationProblem(options=OPTIONS, group_workloads={1: 10}, strict_demand=False)
        assert relaxed.required_capacity(1) == 10.0


@pytest.fixture(params=["fallback"])
def allocator(request) -> IlpAllocator:
    """The exact allocator; the ``fallback`` param keeps the test ids stable."""
    return IlpAllocator()


class TestIlpAllocator:
    def test_empty_workload_allocates_nothing(self, allocator):
        problem = AllocationProblem(options=OPTIONS, group_workloads={1: 0, 2: 0})
        plan = allocator.allocate(problem)
        assert plan.total_instances == 0
        assert plan.total_cost == 0.0
        assert plan.feasible

    def test_single_group_picks_cheapest_sufficient_mix(self, allocator):
        problem = AllocationProblem(options=OPTIONS, group_workloads={1: 15})
        plan = allocator.allocate(problem)
        # 2 nanos (capacity 20 > 15, cost 0.0126) beat any mix using t2.small.
        assert plan.counts["t2.nano"] == 2
        assert plan.counts["t2.small"] == 0
        assert plan.total_cost == pytest.approx(2 * 0.0063)
        assert plan.feasible

    def test_capacity_must_strictly_exceed_workload(self, allocator):
        # Workload exactly equal to one nano's capacity requires a second instance
        # under the paper's strict inequality.
        problem = AllocationProblem(options=(NANO,), group_workloads={1: 10})
        plan = allocator.allocate(problem)
        assert plan.counts["t2.nano"] == 2

    def test_multi_group_allocation_covers_every_group(self, allocator):
        problem = AllocationProblem(options=OPTIONS, group_workloads={1: 25, 2: 70, 3: 10})
        plan = allocator.allocate(problem)
        assert plan.feasible
        assert plan.group_capacities[1] > 25
        assert plan.group_capacities[2] > 70
        assert plan.group_capacities[3] > 10

    def test_instance_cap_respected(self, allocator):
        problem = AllocationProblem(options=OPTIONS, group_workloads={1: 50}, instance_cap=6)
        plan = allocator.allocate(problem)
        assert plan.total_instances <= 6
        assert plan.feasible

    def test_infeasible_when_cap_too_small(self, allocator):
        problem = AllocationProblem(options=(NANO,), group_workloads={1: 100}, instance_cap=3)
        with pytest.raises(AllocationError):
            allocator.allocate(problem)

    def test_unservable_group_raises(self, allocator):
        problem = AllocationProblem(options=(NANO,), group_workloads={1: 5, 9: 3})
        with pytest.raises(AllocationError):
            allocator.allocate(problem)

    def test_solver_label_is_set(self, allocator):
        problem = AllocationProblem(options=OPTIONS, group_workloads={1: 5})
        plan = allocator.allocate(problem)
        assert plan.solver == "branch-and-bound"

    def test_prefers_one_big_instance_when_cheaper(self, allocator):
        # Group 2 workload of 120 with a cheap bulk option: one bulk instance
        # (cost 0.2, capacity 200) beats four larges (0.404).
        bulk = InstanceOption("bulk", acceleration_group=2, cost_per_hour=0.2, capacity=200.0)
        problem = AllocationProblem(options=(LARGE, bulk), group_workloads={2: 120})
        plan = allocator.allocate(problem)
        assert plan.counts["bulk"] == 1
        assert plan.counts["t2.large"] == 0


class TestScipyAndFallbackAgree:
    """The allocator's plan equals an independent SciPy MILP reference's."""

    @pytest.mark.parametrize(
        "workloads",
        [
            {1: 5},
            {1: 15, 2: 30},
            {1: 25, 2: 70, 3: 10},
            {1: 0, 2: 41},
            {1: 33, 3: 149},
            {1: 500},  # beyond the cap: both must find no plan
        ],
    )
    def test_same_optimal_cost(self, workloads):
        problem = AllocationProblem(options=OPTIONS, group_workloads=workloads)
        assert_matches_reference(IlpAllocator(), problem)


class TestGreedyAllocator:
    def test_covers_demand(self):
        problem = AllocationProblem(options=OPTIONS, group_workloads={1: 25, 2: 70})
        plan = GreedyAllocator().allocate(problem)
        assert plan.group_capacities[1] > 25
        assert plan.group_capacities[2] > 70

    def test_never_cheaper_than_ilp(self):
        for workloads in ({1: 25, 2: 70}, {1: 7}, {1: 95, 3: 10}):
            problem = AllocationProblem(options=OPTIONS, group_workloads=workloads)
            greedy = GreedyAllocator().allocate(problem)
            optimal = IlpAllocator().allocate(problem)
            assert greedy.total_cost >= optimal.total_cost - 1e-9

    def test_raises_when_cap_exceeded(self):
        problem = AllocationProblem(options=(NANO,), group_workloads={1: 500}, instance_cap=5)
        with pytest.raises(AllocationError):
            GreedyAllocator().allocate(problem)


class TestOverProvisioningAllocator:
    def test_allocates_headroom(self):
        problem = AllocationProblem(options=OPTIONS, group_workloads={2: 30})
        plan = OverProvisioningAllocator(headroom=2.0).allocate(problem)
        assert plan.group_capacities[2] > 60
        assert "overprovision" in plan.solver

    def test_costs_more_than_exact_allocation(self):
        problem = AllocationProblem(options=OPTIONS, group_workloads={1: 25, 2: 70})
        exact = IlpAllocator().allocate(problem)
        over = OverProvisioningAllocator(headroom=2.0).allocate(problem)
        assert over.total_cost > exact.total_cost

    def test_headroom_validation(self):
        with pytest.raises(ValueError):
            OverProvisioningAllocator(headroom=0.5)


class TestBuildOptionsFromCatalog:
    def test_builds_option_per_type_with_positive_capacity(self):
        options = build_options_from_catalog(
            DEFAULT_CATALOG, work_units=300.0, response_threshold_ms=1000.0
        )
        names = {option.type_name for option in options}
        assert "t2.nano" in names and "m4.10xlarge" in names
        assert all(option.capacity > 0 for option in options)

    def test_group_filter(self):
        options = build_options_from_catalog(
            DEFAULT_CATALOG, work_units=300.0, response_threshold_ms=1000.0, groups=[1, 2]
        )
        assert {option.acceleration_group for option in options} == {1, 2}

    def test_capacity_override_wins(self):
        options = build_options_from_catalog(
            DEFAULT_CATALOG,
            work_units=300.0,
            response_threshold_ms=1000.0,
            capacity_override={"t2.nano": 99.0},
        )
        nano = next(option for option in options if option.type_name == "t2.nano")
        assert nano.capacity == 99.0

    def test_types_that_cannot_meet_threshold_are_skipped(self):
        options = build_options_from_catalog(
            DEFAULT_CATALOG, work_units=5000.0, response_threshold_ms=100.0
        )
        assert options == []


class TestBestEffortPlan:
    """Cap-saturating fallback for workloads no allocation can cover."""

    def test_saturates_the_cap_and_marks_infeasible(self):
        problem = AllocationProblem(
            options=OPTIONS, group_workloads={1: 500, 2: 10}, instance_cap=6
        )
        with pytest.raises(AllocationError):
            IlpAllocator().allocate(problem)
        plan = best_effort_plan(problem)
        assert not plan.feasible
        assert plan.solver == "best-effort"
        assert 0 < plan.total_instances <= 6
        # The uncoverable group gets the lion's share of the cap, but every
        # demanded group keeps at least one instance.
        assert plan.counts["t2.small"] >= 4   # highest-capacity group-1 type
        assert plan.counts["t2.large"] >= 1

    def test_prefers_highest_capacity_type_per_group(self):
        problem = AllocationProblem(
            options=OPTIONS, group_workloads={1: 1000}, instance_cap=3
        )
        plan = best_effort_plan(problem)
        assert plan.counts["t2.small"] == 3   # 12 > 10 capacity
        assert plan.counts["t2.nano"] == 0

    def test_more_groups_than_cap_covers_the_busiest(self):
        problem = AllocationProblem(
            options=OPTIONS, group_workloads={1: 500, 2: 900, 3: 800}, instance_cap=2
        )
        plan = best_effort_plan(problem)
        assert plan.total_instances == 2
        assert plan.counts["t2.large"] == 1   # group 2: busiest
        assert plan.counts["m4.4xlarge"] == 1  # group 3: second

    def test_rejects_empty_demand(self):
        problem = AllocationProblem(
            options=OPTIONS, group_workloads={}, instance_cap=4
        )
        with pytest.raises(AllocationError):
            best_effort_plan(problem)


class TestBuildGroupOptions:
    def test_remaps_groups_from_level_for_type(self):
        options = build_group_options(
            DEFAULT_CATALOG,
            level_for_type={"t2.nano": 7},
            work_units=100.0,
            response_threshold_ms=5000.0,
        )
        by_name = {option.type_name: option for option in options}
        assert by_name["t2.nano"].acceleration_group == 7
        # Unmapped types keep their catalogued level.
        assert by_name["t2.large"].acceleration_group == DEFAULT_CATALOG.get(
            "t2.large"
        ).acceleration_level
