"""Edit-distance metric between time slots.

Section IV-B1 of the paper defines the distance between two time slots
``t_x = {a^x_1, ..., a^x_n}`` and ``t_z = {a^z_1, ..., a^z_n}`` as

    Δ(t_x, t_z) = Σ_r δ(a^x_r, a^z_r)

where ``δ(a^x_r, a^z_r)`` is 0 when the two groups hold exactly the same user
assignment and otherwise the *edit distance* ``D > 0`` between the two groups
"based on the assigned users".

Interpreting a group as the (unordered) set of user ids assigned to it, the
minimal number of single-user insertions/deletions that transforms one group
into the other is the size of the symmetric difference of the two sets; that
is the ``D`` used here.  When user identities are synthetic (slots built from
counts only) this degenerates gracefully to ``|count_x - count_z|``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.timeslots import TimeSlot


def group_edit_distance(users_x: "FrozenSet[int] | Set[int]", users_z: "FrozenSet[int] | Set[int]") -> int:
    """δ between two acceleration groups: 0 if identical, else the edit distance.

    The edit distance between two user sets is the number of single-user
    insertions plus deletions needed to transform one into the other, i.e. the
    size of their symmetric difference.
    """
    if users_x == users_z:
        return 0
    return len(set(users_x) ^ set(users_z))


def slot_edit_distance(
    slot_x: TimeSlot,
    slot_z: TimeSlot,
    groups: Optional[Sequence[int]] = None,
) -> int:
    """Δ(t_x, t_z): sum of per-group edit distances over ``groups``.

    ``groups`` defaults to the union of groups present in either slot, so a
    group that is populated in one slot and absent in the other contributes
    the full size of its user set.
    """
    if groups is None:
        group_ids = sorted(set(slot_x.group_ids) | set(slot_z.group_ids))
    else:
        group_ids = list(groups)
    return sum(
        group_edit_distance(slot_x.users_in_group(group), slot_z.users_in_group(group))
        for group in group_ids
    )


# ---------------------------------------------------------------------------
# Batched knowledge-base computation
# ---------------------------------------------------------------------------


class SlotDistanceIndex:
    """Vectorised edit distances from one query slot to many indexed slots.

    The knowledge base ``P`` recomputed every provisioning period is a loop of
    :func:`slot_edit_distance` calls over the whole history — the hot path of
    the adaptive model.  This index encodes each slot once as the set of its
    ``(group, user)`` assignment pairs (mapped to stable integer columns) and
    answers a query with one vectorised membership test over the concatenated
    history instead of a Python loop:

        Δ(q, t_i) = |q| + |t_i| - 2 · |q ∩ t_i|

    where ``|·|`` counts assignment pairs.  Summing per-group symmetric
    differences is identical to the symmetric difference of the pair sets, so
    the result matches :func:`slot_edit_distance` exactly.

    Slots are appended with :meth:`add` (the history only ever grows) into a
    capacity-doubling flat buffer, so a grow-query-grow loop — the adaptive
    model's per-period pattern — costs amortised O(1) per appended assignment
    instead of re-concatenating the whole history after every ``add``.
    """

    def __init__(self, slots: Optional[Sequence[TimeSlot]] = None) -> None:
        self._columns: Dict[Tuple[int, int], int] = {}
        self._count = 0
        self._sizes: np.ndarray = np.zeros(16, dtype=np.int64)
        self._flat_cols: np.ndarray = np.empty(256, dtype=np.int64)
        self._flat_index: np.ndarray = np.empty(256, dtype=np.int64)
        self._flat_len = 0
        if slots is not None:
            for slot in slots:
                self.add(slot)

    def __len__(self) -> int:
        return self._count

    def _encode(self, slot: TimeSlot) -> np.ndarray:
        columns = self._columns
        codes: List[int] = []
        for group, users in slot.groups.items():
            for user in users:
                key = (group, user)
                code = columns.get(key)
                if code is None:
                    code = len(columns)
                    columns[key] = code
                codes.append(code)
        return np.asarray(codes, dtype=np.int64)

    @staticmethod
    def _grown(buffer: np.ndarray, needed: int) -> np.ndarray:
        capacity = buffer.size
        while capacity < needed:
            capacity *= 2
        if capacity == buffer.size:
            return buffer
        grown = np.empty(capacity, dtype=buffer.dtype)
        grown[: buffer.size] = buffer
        return grown

    def add(self, slot: TimeSlot) -> None:
        """Append one slot to the flat buffer (amortised O(slot size))."""
        encoded = self._encode(slot)
        if self._count >= self._sizes.size:
            self._sizes = self._grown(self._sizes, self._count + 1)
        needed = self._flat_len + encoded.size
        self._flat_cols = self._grown(self._flat_cols, needed)
        self._flat_index = self._grown(self._flat_index, needed)
        self._sizes[self._count] = encoded.size
        self._flat_cols[self._flat_len : needed] = encoded
        self._flat_index[self._flat_len : needed] = self._count
        self._flat_len = needed
        self._count += 1

    def distances_from(self, current: TimeSlot) -> np.ndarray:
        """Δ(current, t_i) for every indexed slot, as an int64 array."""
        count = self._count
        query = self._encode(current)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        flat_cols = self._flat_cols[: self._flat_len]
        if query.size and flat_cols.size:
            member = np.isin(flat_cols, query)
            overlaps = np.bincount(
                self._flat_index[: self._flat_len][member], minlength=count
            )
        else:
            overlaps = np.zeros(count, dtype=np.int64)
        sizes = self._sizes[:count]
        return sizes + np.int64(query.size) - 2 * overlaps
