"""An independent exact solver for allocation problems, used only by tests.

It states the Section IV-C program as printed — one integer variable per
instance type, one capacity row per demanded group, one account-cap row —
and hands it to :func:`scipy.optimize.milp`.  It shares nothing with
:class:`repro.core.allocation.IlpAllocator` but the problem's
``required_capacity``, so agreement between the two is an optimality check
of the allocator.  Tests that call it are skipped when SciPy is missing.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pytest

from repro.core.allocation import AllocationError


def milp_reference_counts(problem) -> Optional[Dict[str, int]]:
    """Per-type instance counts of the MILP optimum, or ``None`` if infeasible."""
    optimize = pytest.importorskip("scipy.optimize")
    options = list(problem.options)
    costs = np.array([option.cost_per_hour for option in options], dtype=float)
    constraints = [
        optimize.LinearConstraint(
            np.array(
                [
                    option.capacity if option.acceleration_group == group else 0.0
                    for option in options
                ],
                dtype=float,
            ),
            lb=problem.required_capacity(group),
            ub=np.inf,
        )
        for group in problem.demanded_groups()
    ]
    constraints.append(
        optimize.LinearConstraint(np.ones(len(options)), lb=0, ub=problem.instance_cap)
    )
    result = optimize.milp(
        c=costs,
        constraints=constraints,
        integrality=np.ones(len(options)),
        bounds=optimize.Bounds(
            lb=np.zeros(len(options)), ub=np.full(len(options), problem.instance_cap)
        ),
    )
    if not result.success:
        return None
    return {option.type_name: int(round(x)) for option, x in zip(options, result.x)}


def assert_matches_reference(allocator, problem) -> None:
    """The allocator's plan equals the MILP optimum, or both find none.

    Equal means the same non-zero counts and a bit-equal ``total_cost``;
    an infeasible problem must make the allocator raise ``AllocationError``.
    """
    reference = milp_reference_counts(problem)
    if reference is None:
        with pytest.raises(AllocationError):
            allocator.allocate(problem)
        return
    plan = allocator.allocate(problem)
    assert plan.feasible
    assert plan.non_zero_counts() == {
        name: count for name, count in reference.items() if count > 0
    }
    # Summed in option order, as the allocator sums, so equal counts give
    # a bit-equal cost.
    cost = 0.0
    for option in problem.options:
        cost += reference[option.type_name] * option.cost_per_hour
    assert plan.total_cost == cost
