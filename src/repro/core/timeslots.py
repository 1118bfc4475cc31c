"""Time slots and slot history.

The adaptive model works on a set of time slots ``T = {t_i : 1 <= i <= H}``
of equal length (Section IV-A).  Each slot consists of a set of acceleration
groups ``A = {a_n : 1 <= n <= N}``; each group holds the (possibly empty) set
of users that required that level of acceleration during the slot.  The
workload of group ``a_n`` in a slot, ``W_{a_n}``, is the number of such users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set

from repro.simulation.clock import MILLISECONDS_PER_HOUR


@dataclass(frozen=True)
class TimeSlot:
    """One time slot: per-acceleration-group user sets.

    Attributes
    ----------
    index:
        Position of the slot in its history (0-based).
    groups:
        Mapping from acceleration group id to the frozen set of user ids that
        offloaded with that group during the slot.  Groups with no users map
        to an empty set (the paper's ``a_n = ∅`` case).
    """

    index: int
    groups: Mapping[int, FrozenSet[int]]

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"slot index must be >= 0, got {self.index}")
        frozen = {int(group): frozenset(users) for group, users in self.groups.items()}
        object.__setattr__(self, "groups", frozen)

    @classmethod
    def from_user_sets(cls, index: int, groups: Mapping[int, Iterable[int]]) -> "TimeSlot":
        """Build a slot from any mapping of group -> iterable of user ids."""
        return cls(index=index, groups={g: frozenset(users) for g, users in groups.items()})

    @classmethod
    def from_counts(cls, index: int, counts: Mapping[int, int]) -> "TimeSlot":
        """Build a slot from per-group user *counts* only.

        When user identities are not available (e.g. aggregate logs), synthetic
        user ids are generated per group; the edit distance then degenerates to
        the absolute difference of counts, which is the intended behaviour.
        """
        groups: Dict[int, FrozenSet[int]] = {}
        for group, count in counts.items():
            if count < 0:
                raise ValueError(f"count for group {group} must be >= 0, got {count}")
            groups[int(group)] = frozenset(range(int(count)))
        return cls(index=index, groups=groups)

    @property
    def group_ids(self) -> List[int]:
        """Sorted acceleration group ids present in the slot."""
        return sorted(self.groups)

    def users_in_group(self, group: int) -> FrozenSet[int]:
        """Users assigned to ``group`` during the slot (empty if absent)."""
        return self.groups.get(group, frozenset())

    def workload(self, group: int) -> int:
        """``W_{a_n}``: number of users requiring acceleration ``group``."""
        return len(self.users_in_group(group))

    def workload_vector(self, groups: Optional[Sequence[int]] = None) -> Dict[int, int]:
        """Per-group workloads as a plain dict, over ``groups`` or all present."""
        group_ids = list(groups) if groups is not None else self.group_ids
        return {group: self.workload(group) for group in group_ids}


class TimeSlotHistory:
    """The ordered history ``T`` of time slots available to the model."""

    def __init__(
        self,
        slots: Optional[Iterable[TimeSlot]] = None,
        *,
        slot_length_ms: float = MILLISECONDS_PER_HOUR,
    ) -> None:
        if slot_length_ms <= 0:
            raise ValueError(f"slot_length_ms must be positive, got {slot_length_ms}")
        self.slot_length_ms = slot_length_ms
        self._slots: List[TimeSlot] = list(slots) if slots else []

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[TimeSlot]:
        return iter(self._slots)

    def __getitem__(self, index: int) -> TimeSlot:
        return self._slots[index]

    @property
    def slots(self) -> List[TimeSlot]:
        return list(self._slots)

    def append(self, slot: TimeSlot) -> None:
        """Append the newest slot to the history."""
        self._slots.append(slot)

    def append_user_sets(self, groups: Mapping[int, Iterable[int]]) -> TimeSlot:
        """Create a slot with the next index from per-group user sets and append it."""
        slot = TimeSlot.from_user_sets(len(self._slots), groups)
        self.append(slot)
        return slot

    def latest(self) -> TimeSlot:
        """The most recent slot."""
        if not self._slots:
            raise ValueError("history is empty")
        return self._slots[-1]

    def group_ids(self) -> List[int]:
        """All acceleration groups seen anywhere in the history."""
        groups: Set[int] = set()
        for slot in self._slots:
            groups.update(slot.group_ids)
        return sorted(groups)
