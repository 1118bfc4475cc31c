"""Regression tests for the vectorised primitives behind the batched path.

Covers live pending-event accounting, the incremental ``SlotDistanceIndex``
buffer, bulk arrival generation, bulk latency sampling, and the bulk
moderator/device observation paths.
"""

import numpy as np
import pytest

from repro.core.distance import SlotDistanceIndex, slot_edit_distance
from repro.core.timeslots import TimeSlot
from repro.mobile.device import DEVICE_PROFILES, MobileDevice
from repro.mobile.moderator import (
    BatteryAwarePolicy,
    Moderator,
    ResponseTimeThresholdPolicy,
    StaticProbabilityPolicy,
)
from repro.network.latency import ConstantLatencyModel, lte_latency_model
from repro.simulation.engine import SimulationEngine
from repro.workload.arrival import (
    FixedRateArrivalProcess,
    ModulatedPoissonProcess,
    PoissonArrivalProcess,
    UniformArrivalProcess,
)


class TestLivePendingEvents:
    def test_cancelled_events_leave_live_count(self):
        engine = SimulationEngine()
        keep = engine.schedule_at(10.0, lambda: None)
        victim = engine.schedule_at(20.0, lambda: None)
        assert engine.pending_events == 2
        victim.cancel()
        assert engine.pending_events == 1
        victim.cancel()  # double cancel must not double count
        assert engine.pending_events == 1
        keep.cancel()
        assert engine.pending_events == 0
        engine.run()
        assert engine.pending_events == 0

    def test_count_recovers_after_run_pops_cancelled(self):
        engine = SimulationEngine()
        victim = engine.schedule_at(5.0, lambda: None)
        engine.schedule_at(6.0, lambda: None)
        victim.cancel()
        engine.run()
        assert engine.pending_events == 0
        event = engine.schedule_at(7.0, lambda: None)
        assert engine.pending_events == 1
        event.cancel()
        assert engine.pending_events == 0

    def test_late_cancel_of_executed_event_is_harmless(self):
        engine = SimulationEngine()
        event = engine.schedule_at(1.0, lambda: None)
        engine.run()
        event.cancel()
        assert engine.pending_events == 0

    def test_event_uses_slots(self):
        engine = SimulationEngine()
        event = engine.schedule_at(1.0, lambda: None)
        with pytest.raises(AttributeError):
            event.arbitrary_attribute = 1


def random_slot(rng: np.random.Generator, index: int) -> TimeSlot:
    return TimeSlot.from_user_sets(
        index,
        {
            1: rng.choice(50, size=int(rng.integers(0, 12)), replace=False).tolist(),
            2: rng.choice(50, size=int(rng.integers(0, 8)), replace=False).tolist(),
            3: rng.choice(50, size=int(rng.integers(0, 5)), replace=False).tolist(),
        },
    )


class TestIncrementalDistanceIndex:
    def test_grow_query_grow_matches_slot_edit_distance(self):
        rng = np.random.default_rng(1)
        slots = [random_slot(rng, index) for index in range(40)]
        index = SlotDistanceIndex()
        for position, slot in enumerate(slots):
            index.add(slot)
            query = random_slot(rng, 99)
            got = index.distances_from(query)
            expected = np.asarray(
                [slot_edit_distance(query, other) for other in slots[: position + 1]],
                dtype=np.int64,
            )
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)

    def test_incremental_matches_bulk_construction(self):
        rng = np.random.default_rng(2)
        slots = [random_slot(rng, index) for index in range(25)]
        query = random_slot(rng, 99)
        incremental = SlotDistanceIndex()
        for slot in slots:
            incremental.add(slot)
        bulk = SlotDistanceIndex(slots)
        np.testing.assert_array_equal(
            incremental.distances_from(query), bulk.distances_from(query)
        )
        assert len(incremental) == len(bulk) == len(slots)

    def test_buffer_grows_past_initial_capacity(self):
        rng = np.random.default_rng(3)
        index = SlotDistanceIndex()
        slots = [random_slot(rng, i) for i in range(300)]
        for slot in slots:
            index.add(slot)
        query = slots[150]
        distances = index.distances_from(query)
        assert distances.size == 300
        assert distances[150] == 0


class TestArrivalArrays:
    def test_array_is_the_running_sum_of_sampled_gaps(self):
        process = UniformArrivalProcess(low_ms=100.0, high_ms=500.0)
        array = process.arrival_times_array(
            np.random.default_rng(7), start_ms=0.0, end_ms=60_000.0
        )
        # The first chunk (1024 gaps of at least 100 ms) covers the interval.
        gaps = process.sample_gaps_ms(np.random.default_rng(7), 1024)
        times = np.cumsum(gaps)
        assert isinstance(array, np.ndarray)
        np.testing.assert_array_equal(array, times[times < 60_000.0])

    def test_fixed_rate_is_exact(self):
        process = FixedRateArrivalProcess(rate_hz=2.0)
        times = process.arrival_times_array(
            np.random.default_rng(0), start_ms=0.0, end_ms=5_000.0
        )
        np.testing.assert_allclose(times, [500.0, 1000.0, 1500.0, 2000.0, 2500.0,
                                           3000.0, 3500.0, 4000.0, 4500.0])

    def test_poisson_bulk_determinism(self):
        process = PoissonArrivalProcess(rate_hz=50.0)
        first = process.arrival_times_array(
            np.random.default_rng(3), start_ms=0.0, end_ms=100_000.0
        )
        second = process.arrival_times_array(
            np.random.default_rng(3), start_ms=0.0, end_ms=100_000.0
        )
        np.testing.assert_array_equal(first, second)
        assert first.size == pytest.approx(5000, rel=0.1)

    def test_max_arrivals_enforced_in_bulk(self):
        process = PoissonArrivalProcess(rate_hz=100.0)
        times = process.arrival_times_array(
            np.random.default_rng(4), start_ms=0.0, end_ms=1_000_000.0, max_arrivals=17
        )
        assert times.size == 17

    def test_modulated_vectorised_rate_fn(self):
        duration = 100_000.0

        def rate(t_ms):
            t = np.asarray(t_ms, dtype=float)
            values = np.where(t < duration / 2, 0.0, 8.0)
            return values if values.ndim else float(values)

        process = ModulatedPoissonProcess(rate, peak_rate_hz=8.0)
        times = process.arrival_times_array(
            np.random.default_rng(5), start_ms=0.0, end_ms=duration
        )
        assert times.size > 100
        assert np.all(times >= duration / 2)


class TestBulkLatencySampling:
    def test_lognormal_sample_many_at_respects_hours(self):
        model = lte_latency_model()
        rng = np.random.default_rng(0)
        hours = np.asarray([0.0, 6.0, 12.0, 20.0])
        samples = model.sample_many_at(rng, np.tile(hours, 2000))
        assert samples.shape == (8000,)
        assert np.all(samples >= model.floor_ms)

    def test_constant_models_consume_no_rng(self):
        model = ConstantLatencyModel(rtt_ms=33.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        samples = model.sample_many_at(rng, np.zeros(10))
        assert np.all(samples == 33.0)
        assert rng.bit_generator.state == before


class TestBulkModeration:
    def make_device(self, group=1):
        return MobileDevice(
            user_id=0, profile=DEVICE_PROFILES["budget-phone"], acceleration_group=group
        )

    def test_static_decide_many_matches_scalar_stream(self):
        policy = StaticProbabilityPolicy(probability=0.3)
        device = self.make_device()
        bulk = policy.decide_many(device, [], np.zeros(100), np.random.default_rng(5))
        rng = np.random.default_rng(5)
        scalar = [policy.decide(device, 0.0, rng).promote for _ in range(100)]
        np.testing.assert_array_equal(bulk, np.asarray(scalar))

    def test_threshold_decide_many_uses_rolling_window(self):
        policy = ResponseTimeThresholdPolicy(threshold_ms=100.0, window=3)
        device = self.make_device()
        responses = np.asarray([50.0, 60.0, 400.0, 500.0, 10.0, 10.0, 10.0])
        device.record_responses(responses)
        decisions = policy.decide_many(device, [], responses, np.random.default_rng(0))
        # Rolling 3-mean crosses 100 ms once the 400/500 responses land.
        assert decisions.tolist() == [False, False, True, True, True, True, False]

    def test_threshold_decide_many_windows_reach_into_prior_responses(self):
        policy = ResponseTimeThresholdPolicy(threshold_ms=100.0, window=3)
        device = self.make_device()
        # Only the last window - 1 prior responses count: 1000 ms drops out.
        prior = [1000.0, 250.0, 50.0]
        decisions = policy.decide_many(
            device, prior, np.asarray([10.0, 10.0]), np.random.default_rng(0)
        )
        assert decisions.tolist() == [True, False]

    def test_battery_decide_many_draws_one_per_response(self):
        policy = BatteryAwarePolicy(base_probability=0.5)
        device = self.make_device()
        rng = np.random.default_rng(1)
        decisions = policy.decide_many(device, [], np.zeros(50), rng)
        assert decisions.size == 50
        assert 0 < decisions.sum() < 50

    def test_battery_decide_many_reads_the_level_after_the_batch_drain(self):
        policy = BatteryAwarePolicy(
            battery_threshold=0.5, low_battery_probability=1.0, base_probability=0.0
        )
        device = self.make_device()
        device.battery.level = 0.5 + 1e-12
        moderator = Moderator(policy, max_group=3, rng=np.random.default_rng(0))
        # The batch's drain takes the battery below the threshold, so the
        # whole batch draws against the low-battery probability.
        assert moderator.observe_many(device, np.full(2, 1000.0), np.arange(2.0)) == 2

    def test_observe_many_promotes_sequentially(self):
        device = self.make_device(group=1)
        moderator = Moderator(
            StaticProbabilityPolicy(probability=1.0),
            max_group=3,
            rng=np.random.default_rng(0),
        )
        promoted = moderator.observe_many(
            device, np.full(5, 100.0), np.arange(5, dtype=float)
        )
        # Promotion is gradual and capped at the highest group.
        assert promoted == 2
        assert device.acceleration_group == 3
        assert device.promotions == [0.0, 1.0]
        assert device.responses_recorded == 5

    def test_observe_many_with_zero_probability_never_promotes(self):
        device = self.make_device()
        moderator = Moderator(
            StaticProbabilityPolicy(probability=0.0),
            max_group=3,
            rng=np.random.default_rng(0),
        )
        assert moderator.observe_many(device, np.full(10, 50.0), np.arange(10.0)) == 0
        assert device.acceleration_group == 1

    def test_record_responses_matches_scalar_battery_drain(self):
        bulk_device = self.make_device()
        scalar_device = self.make_device()
        responses = np.asarray([1000.0, 2000.0, 1500.0])
        bulk_device.record_responses(responses)
        for response in responses:
            scalar_device.record_response(float(response))
        assert bulk_device.responses_recorded == scalar_device.responses_recorded
        assert bulk_device.recent_responses_ms == scalar_device.recent_responses_ms
        assert bulk_device.battery.level == pytest.approx(scalar_device.battery.level)
