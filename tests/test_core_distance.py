"""Tests for the edit-distance metric between time slots."""

import pytest

from repro.core.distance import group_edit_distance, slot_edit_distance
from repro.core.timeslots import TimeSlot


class TestGroupEditDistance:
    def test_identical_groups_have_zero_distance(self):
        assert group_edit_distance({1, 2, 3}, {1, 2, 3}) == 0

    def test_empty_groups_are_identical(self):
        assert group_edit_distance(set(), set()) == 0

    def test_distance_is_symmetric_difference(self):
        assert group_edit_distance({1, 2}, {2, 3}) == 2
        assert group_edit_distance({1, 2, 3}, set()) == 3
        assert group_edit_distance(set(), {7}) == 1

    def test_distance_is_symmetric(self):
        assert group_edit_distance({1, 2}, {3}) == group_edit_distance({3}, {1, 2})

    def test_works_with_frozensets(self):
        assert group_edit_distance(frozenset({1}), frozenset({2})) == 2


class TestSlotEditDistance:
    def slot(self, index, groups):
        return TimeSlot.from_user_sets(index, groups)

    def test_identical_slots_have_zero_distance(self):
        a = self.slot(0, {1: [1, 2], 2: [3]})
        b = self.slot(1, {1: [1, 2], 2: [3]})
        assert slot_edit_distance(a, b) == 0

    def test_distance_sums_over_groups(self):
        a = self.slot(0, {1: [1, 2], 2: [3]})
        b = self.slot(1, {1: [1], 2: [3, 4]})
        # Group 1 differs by user 2 (distance 1), group 2 by user 4 (distance 1).
        assert slot_edit_distance(a, b) == 2

    def test_groups_missing_from_one_slot_count_fully(self):
        a = self.slot(0, {1: [1, 2, 3]})
        b = self.slot(1, {2: [4]})
        assert slot_edit_distance(a, b) == 4

    def test_explicit_group_list_restricts_comparison(self):
        a = self.slot(0, {1: [1], 2: [2, 3]})
        b = self.slot(1, {1: [1], 2: []})
        assert slot_edit_distance(a, b, groups=[1]) == 0
        assert slot_edit_distance(a, b, groups=[1, 2]) == 2

    def test_distance_is_symmetric(self):
        a = self.slot(0, {1: [1, 2]})
        b = self.slot(1, {1: [3]})
        assert slot_edit_distance(a, b) == slot_edit_distance(b, a)

    def test_triangle_inequality_on_examples(self):
        a = self.slot(0, {1: [1, 2]})
        b = self.slot(1, {1: [2, 3]})
        c = self.slot(2, {1: [3, 4]})
        assert slot_edit_distance(a, c) <= slot_edit_distance(a, b) + slot_edit_distance(b, c)
