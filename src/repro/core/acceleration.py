"""Acceleration groups and performance-based server characterization.

The paper abstracts the cloud's computational resources into *acceleration
groups*: "the model encapsulates the servers of the cloud into acceleration
groups.  Each a_n is mapped to a set of servers that provide a specific level
of code acceleration" (Section IV-A).  The grouping is determined empirically
(Section VI-A): each server type is stressed with a growing number of
concurrent users, the degradation of its response time is measured, and
servers with the same capacity to keep the response time under the operator's
minimum acceleration level (e.g. 500 ms) land in the same group
(Section IV-C1).

:func:`characterize_instances` reproduces that procedure on top of the
calibrated performance profiles of the instance catalog (or measured response
curves), and :class:`AccelerationLevelCharacterization` is its result: the
ordered set of groups, the capacity of every type and the speed-up each group
offers relative to the slowest one (the Fig. 5 ratios).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class AccelerationGroup:
    """One acceleration group ``a_n``: a level and its member instance types."""

    level: int
    instance_types: Tuple[str, ...]
    capacity: float
    speed_factor: float

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if not self.instance_types:
            raise ValueError("an acceleration group needs at least one instance type")
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        if self.speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {self.speed_factor}")
        object.__setattr__(self, "instance_types", tuple(self.instance_types))


@dataclass
class AccelerationLevelCharacterization:
    """The outcome of characterising a catalog into acceleration groups."""

    groups: List[AccelerationGroup]
    work_units: float
    response_threshold_ms: float
    capacities: Dict[str, float] = field(default_factory=dict)

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def acceleration_ratio(self, higher_level: int, lower_level: int) -> float:
        """How much faster ``higher_level`` executes a task than ``lower_level``.

        These are the Fig. 5 ratios (≈1.25× between levels 2 and 1, ≈1.73×
        between 3 and 1, ≈1.36× between 3 and 2).
        """
        by_level = {group.level: group for group in self.groups}
        if higher_level not in by_level or lower_level not in by_level:
            raise KeyError(
                f"levels {higher_level} and {lower_level} must both be characterised"
            )
        return by_level[higher_level].speed_factor / by_level[lower_level].speed_factor

    def as_level_map(self) -> Dict[str, int]:
        """Instance type name -> assigned acceleration level."""
        mapping: Dict[str, int] = {}
        for group in self.groups:
            for type_name in group.instance_types:
                mapping[type_name] = group.level
        return mapping


def characterize_instances(
    catalog,
    *,
    work_units: float = 300.0,
    response_threshold_ms: float = 500.0,
    capacity_tolerance: float = 0.25,
    measured_capacities: Optional[Mapping[str, float]] = None,
    measured_speed_factors: Optional[Mapping[str, float]] = None,
) -> AccelerationLevelCharacterization:
    """Classify the catalog's instance types into acceleration groups.

    The procedure follows Section IV-C1 of the paper:

    1. compute (or take as measured) every type's capacity — the number of
       concurrent users it can serve while keeping the response time of a
       ``work_units`` task under ``response_threshold_ms``;
    2. sort the types in ascending order of capacity;
    3. create one group per distinct capacity, merging types whose capacities
       differ by less than ``capacity_tolerance`` (relative) — "instances with
       the same capacity are assigned to the same group".

    The resulting groups are numbered from 0 (lowest capacity) upward.  The
    group's ``speed_factor`` (used for the Fig. 5 ratios) is the mean
    single-request speed of its members.

    Parameters
    ----------
    catalog:
        An :class:`~repro.cloud.catalog.InstanceCatalog` (or any iterable of
        objects with ``name``, ``profile.speed_factor`` and a
        ``profile.capacity_under_threshold`` method).
    measured_capacities / measured_speed_factors:
        Optional measured values (e.g. from running the simulated benchmark of
        :mod:`repro.analysis.characterization`); when given they override the
        analytic profile-derived numbers.
    """
    if capacity_tolerance < 0:
        raise ValueError(f"capacity_tolerance must be >= 0, got {capacity_tolerance}")

    capacities: Dict[str, float] = {}
    speeds: Dict[str, float] = {}
    for instance_type in catalog:
        name = instance_type.name
        if measured_capacities is not None and name in measured_capacities:
            capacities[name] = float(measured_capacities[name])
        else:
            capacities[name] = float(
                instance_type.profile.capacity_under_threshold(
                    work_units, response_threshold_ms
                )
            )
        if measured_speed_factors is not None and name in measured_speed_factors:
            speeds[name] = float(measured_speed_factors[name])
        else:
            speeds[name] = float(instance_type.profile.speed_factor)

    # Sort ascending by capacity, then by speed to break ties deterministically.
    ordered = sorted(capacities, key=lambda name: (capacities[name], speeds[name], name))

    groups: List[AccelerationGroup] = []
    current_members: List[str] = []
    current_capacity = None
    level = 0
    for name in ordered:
        capacity = capacities[name]
        if current_capacity is None:
            current_members = [name]
            current_capacity = capacity
            continue
        reference = max(current_capacity, 1e-9)
        if abs(capacity - current_capacity) / reference <= capacity_tolerance:
            current_members.append(name)
            # Track the running mean capacity of the group so a slow drift of
            # similar capacities does not chain into one giant group.
            current_capacity = float(
                np.mean([capacities[member] for member in current_members])
            )
        else:
            groups.append(
                _build_group(level, current_members, capacities, speeds)
            )
            level += 1
            current_members = [name]
            current_capacity = capacity
    if current_members:
        groups.append(_build_group(level, current_members, capacities, speeds))

    return AccelerationLevelCharacterization(
        groups=groups,
        work_units=work_units,
        response_threshold_ms=response_threshold_ms,
        capacities=capacities,
    )


def _build_group(
    level: int,
    members: Sequence[str],
    capacities: Mapping[str, float],
    speeds: Mapping[str, float],
) -> AccelerationGroup:
    return AccelerationGroup(
        level=level,
        instance_types=tuple(sorted(members)),
        capacity=float(np.mean([capacities[name] for name in members])),
        speed_factor=float(np.mean([speeds[name] for name in members])),
    )
