"""Tests for time slots and the slot history."""

import pytest

from repro.core.timeslots import TimeSlot, TimeSlotHistory


class TestTimeSlot:
    def test_from_user_sets(self):
        slot = TimeSlot.from_user_sets(0, {1: [1, 2, 3], 2: [4]})
        assert slot.workload(1) == 3
        assert slot.workload(2) == 1
        assert slot.workload(3) == 0
        assert sum(slot.workload_vector().values()) == 4

    def test_from_counts_generates_synthetic_users(self):
        slot = TimeSlot.from_counts(0, {1: 5, 2: 0})
        assert slot.workload(1) == 5
        assert slot.workload(2) == 0
        assert slot.users_in_group(2) == frozenset()

    def test_from_counts_rejects_negative(self):
        with pytest.raises(ValueError):
            TimeSlot.from_counts(0, {1: -1})

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            TimeSlot(index=-1, groups={})

    def test_groups_are_frozen(self):
        slot = TimeSlot.from_user_sets(0, {1: {1, 2}})
        assert isinstance(slot.users_in_group(1), frozenset)

    def test_workload_vector_with_explicit_groups(self):
        slot = TimeSlot.from_user_sets(0, {1: [1]})
        assert slot.workload_vector([1, 2, 3]) == {1: 1, 2: 0, 3: 0}

    def test_group_ids_sorted(self):
        slot = TimeSlot.from_user_sets(0, {3: [], 1: [], 2: []})
        assert slot.group_ids == [1, 2, 3]


class TestTimeSlotHistory:
    def test_append_and_iterate(self):
        history = TimeSlotHistory()
        history.append_user_sets({1: [1]})
        history.append_user_sets({1: [1, 2]})
        assert len(history) == 2
        assert [slot.index for slot in history] == [0, 1]
        assert history[1].workload(1) == 2
        assert history.latest().index == 1

    def test_latest_on_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSlotHistory().latest()

    def test_group_ids_union(self):
        history = TimeSlotHistory()
        history.append_user_sets({1: [1]})
        history.append_user_sets({2: [2]})
        assert history.group_ids() == [1, 2]

    def test_invalid_slot_length(self):
        with pytest.raises(ValueError):
            TimeSlotHistory(slot_length_ms=0.0)
