"""Tests for the vectorised knowledge-base distance computation."""

import numpy as np
import pytest

from repro.core.distance import SlotDistanceIndex, slot_edit_distance
from repro.core.prediction import WorkloadPredictor
from repro.core.timeslots import TimeSlot, TimeSlotHistory


def random_slot(rng, index, *, groups=(1, 2, 3), universe=500, max_users=60):
    assignment = {}
    for group in groups:
        count = int(rng.integers(0, max_users))
        users = rng.choice(universe, size=count, replace=False)
        assignment[group] = frozenset(int(user) for user in users)
    return TimeSlot(index=index, groups=assignment)


class TestBatchSlotDistances:
    def test_matches_scalar_loop_on_random_slots(self):
        rng = np.random.default_rng(7)
        slots = [random_slot(rng, i) for i in range(40)]
        query = random_slot(rng, 40)
        batch = SlotDistanceIndex(slots).distances_from(query)
        expected = [slot_edit_distance(query, slot) for slot in slots]
        assert batch.tolist() == expected

    def test_empty_history(self):
        query = TimeSlot.from_counts(0, {1: 3})
        assert SlotDistanceIndex([]).distances_from(query).size == 0

    def test_empty_query_slot(self):
        slots = [TimeSlot.from_counts(0, {1: 4}), TimeSlot.from_counts(1, {2: 2})]
        query = TimeSlot(index=2, groups={})
        batch = SlotDistanceIndex(slots).distances_from(query)
        assert batch.tolist() == [4, 2]

    def test_identical_slots_have_zero_distance(self):
        slot = TimeSlot.from_user_sets(0, {1: {10, 11}, 2: {20}})
        twin = TimeSlot.from_user_sets(1, {1: {10, 11}, 2: {20}})
        assert SlotDistanceIndex([twin]).distances_from(slot).tolist() == [0]

    def test_disjoint_groups_count_full_sets(self):
        # A group populated in one slot and absent in the other contributes
        # the full size of its user set.
        slot_a = TimeSlot.from_user_sets(0, {1: {1, 2, 3}})
        slot_b = TimeSlot.from_user_sets(1, {2: {7, 8}})
        assert SlotDistanceIndex([slot_b]).distances_from(slot_a).tolist() == [5]

    def test_same_user_in_different_groups_is_distinct(self):
        # (group, user) pairs are the unit of comparison: user 5 in group 1
        # and user 5 in group 2 are different assignments.
        slot_a = TimeSlot.from_user_sets(0, {1: {5}})
        slot_b = TimeSlot.from_user_sets(1, {2: {5}})
        assert SlotDistanceIndex([slot_b]).distances_from(slot_a).tolist() == [2]


class TestSlotDistanceIndex:
    def test_incremental_add_matches_bulk_construction(self):
        rng = np.random.default_rng(3)
        slots = [random_slot(rng, i) for i in range(12)]
        query = random_slot(rng, 12)
        bulk = SlotDistanceIndex(slots)
        incremental = SlotDistanceIndex()
        for slot in slots:
            incremental.add(slot)
        assert bulk.distances_from(query).tolist() == incremental.distances_from(query).tolist()

    def test_queries_interleaved_with_appends(self):
        rng = np.random.default_rng(11)
        index = SlotDistanceIndex()
        slots = []
        for i in range(10):
            slot = random_slot(rng, i, groups=(1, 2))
            index.add(slot)
            slots.append(slot)
            query = random_slot(rng, 100 + i, groups=(1, 2))
            expected = [slot_edit_distance(query, s) for s in slots]
            assert index.distances_from(query).tolist() == expected

    def test_len_tracks_added_slots(self):
        index = SlotDistanceIndex()
        assert len(index) == 0
        index.add(TimeSlot.from_counts(0, {1: 2}))
        assert len(index) == 1


class TestPredictorUsesBatchPath:
    def test_knowledge_base_matches_scalar_distances(self):
        rng = np.random.default_rng(5)
        history = TimeSlotHistory([random_slot(rng, i) for i in range(15)])
        predictor = WorkloadPredictor(history, exclude_current=False)
        current = history[len(history) - 1]
        kb = predictor.knowledge_base(current)
        assert kb == {
            i: slot_edit_distance(current, slot) for i, slot in enumerate(history)
        }
        assert all(isinstance(value, int) for value in kb.values())

    def test_knowledge_base_exclude_index(self):
        history = TimeSlotHistory(
            [TimeSlot.from_counts(i, {1: i + 1}) for i in range(5)]
        )
        predictor = WorkloadPredictor(history, exclude_current=False)
        kb = predictor.knowledge_base(history[4], exclude_index=2)
        assert 2 not in kb
        assert set(kb) == {0, 1, 3, 4}

    def test_index_rebuilds_when_history_is_swapped(self):
        predictor = WorkloadPredictor(
            TimeSlotHistory([TimeSlot.from_counts(i, {1: 5}) for i in range(3)]),
            exclude_current=False,
        )
        predictor.knowledge_base(predictor.history[2])
        replacement = TimeSlotHistory(
            [TimeSlot.from_counts(i, {1: i}) for i in range(4)]
        )
        predictor.history = replacement
        current = replacement[3]
        kb = predictor.knowledge_base(current)
        assert kb == {
            i: slot_edit_distance(current, slot) for i, slot in enumerate(replacement)
        }

    def test_prediction_unchanged_after_observing_new_slots(self):
        predictor = WorkloadPredictor(exclude_current=False)
        for i in range(6):
            predictor.observe(TimeSlot.from_counts(i, {1: (i % 3) * 4, 2: i}))
        current = TimeSlot.from_counts(6, {1: 4, 2: 1})
        first = predictor.predict(current)
        assert first.distances == {
            i: slot_edit_distance(current, slot)
            for i, slot in enumerate(predictor.history)
        }
        predictor.observe(TimeSlot.from_counts(6, {1: 4, 2: 1}))
        second = predictor.predict(current)
        assert second.distance == 0
