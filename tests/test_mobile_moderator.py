"""Tests for the client-side moderator and its promotion policies."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobile.device import DEVICE_PROFILES, RECENT_RESPONSES, MobileDevice
from repro.mobile.moderator import (
    BatteryAwarePolicy,
    Moderator,
    ResponseTimeThresholdPolicy,
    StaticProbabilityPolicy,
)


def make_device(group=1):
    return MobileDevice(user_id=0, profile=DEVICE_PROFILES["budget-phone"], acceleration_group=group)


class TestStaticProbabilityPolicy:
    def test_default_probability_is_one_in_fifty(self):
        assert StaticProbabilityPolicy().probability == pytest.approx(1.0 / 50.0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            StaticProbabilityPolicy(probability=1.5)

    def test_promotion_rate_matches_probability(self, rng):
        policy = StaticProbabilityPolicy(probability=0.2)
        device = make_device()
        decisions = [policy.decide(device, 1000.0, rng).promote for _ in range(5000)]
        assert np.mean(decisions) == pytest.approx(0.2, abs=0.03)

    def test_zero_probability_never_promotes(self, rng):
        policy = StaticProbabilityPolicy(probability=0.0)
        assert not any(policy.decide(make_device(), 1000.0, rng).promote for _ in range(100))


class TestResponseTimeThresholdPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResponseTimeThresholdPolicy(threshold_ms=0.0)
        with pytest.raises(ValueError):
            ResponseTimeThresholdPolicy(window=0)

    def test_window_longer_than_the_tail_is_rejected(self):
        with pytest.raises(
            ValueError,
            match=f"window must be <= {RECENT_RESPONSES}, got {RECENT_RESPONSES + 1}",
        ):
            ResponseTimeThresholdPolicy(window=RECENT_RESPONSES + 1)
        assert ResponseTimeThresholdPolicy(window=RECENT_RESPONSES).window == RECENT_RESPONSES

    def test_promotes_when_recent_mean_exceeds_threshold(self, rng):
        policy = ResponseTimeThresholdPolicy(threshold_ms=1000.0, window=3)
        device = make_device()
        for value in (1500.0, 1600.0, 1700.0):
            device.record_response(value)
        assert policy.decide(device, 1700.0, rng).promote

    def test_does_not_promote_below_threshold(self, rng):
        policy = ResponseTimeThresholdPolicy(threshold_ms=2000.0, window=3)
        device = make_device()
        for value in (500.0, 600.0, 700.0):
            device.record_response(value)
        assert not policy.decide(device, 700.0, rng).promote

    def test_no_history_means_no_promotion(self, rng):
        policy = ResponseTimeThresholdPolicy(threshold_ms=100.0)
        assert not policy.decide(make_device(), 5000.0, rng).promote


class TestBatteryAwarePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatteryAwarePolicy(battery_threshold=2.0)
        with pytest.raises(ValueError):
            BatteryAwarePolicy(low_battery_probability=-0.1)

    def test_low_battery_promotes_more_often(self, rng):
        policy = BatteryAwarePolicy(battery_threshold=0.5, low_battery_probability=0.5, base_probability=0.01)
        low = make_device()
        low.battery.level = 0.1
        high = make_device()
        high.battery.level = 0.9
        low_rate = np.mean([policy.decide(low, 1000.0, rng).promote for _ in range(2000)])
        high_rate = np.mean([policy.decide(high, 1000.0, rng).promote for _ in range(2000)])
        assert low_rate > high_rate * 5


class TestModerator:
    def test_records_response_and_promotes_sequentially(self, rng):
        moderator = Moderator(StaticProbabilityPolicy(probability=1.0), max_group=3, rng=rng)
        device = make_device(group=1)
        moderator.observe(device, 1000.0, now_ms=10.0)
        assert device.acceleration_group == 2
        moderator.observe(device, 1000.0, now_ms=20.0)
        assert device.acceleration_group == 3
        assert device.promotions == [10.0, 20.0]
        assert moderator.promotions_made == 2

    def test_never_promotes_beyond_max_group(self, rng):
        moderator = Moderator(StaticProbabilityPolicy(probability=1.0), max_group=2, rng=rng)
        device = make_device(group=2)
        decision = moderator.observe(device, 1000.0, now_ms=0.0)
        assert not decision.promote
        assert device.acceleration_group == 2

    def test_default_policy_is_the_paper_static_rule(self, rng):
        moderator = Moderator(max_group=3, rng=rng)
        assert isinstance(moderator.policy, StaticProbabilityPolicy)
        assert moderator.policy.probability == pytest.approx(1.0 / 50.0)

    def test_observe_always_records_response(self, rng):
        moderator = Moderator(StaticProbabilityPolicy(probability=0.0), max_group=3, rng=rng)
        device = make_device()
        moderator.observe(device, 1234.0, now_ms=0.0)
        assert device.responses_recorded == 1
        assert list(device.recent_responses_ms) == [1234.0]

    def test_invalid_max_group_rejected(self, rng):
        with pytest.raises(ValueError):
            Moderator(max_group=-1, rng=rng)


class _FullHistoryModerator:
    """A threshold moderator that keeps every response, as devices once did.

    ``recent_mean``, ``decide_many`` and both observe paths are the
    list-based code the bounded tail replaced.
    """

    def __init__(self, threshold_ms, window, group, max_group):
        self.threshold_ms = threshold_ms
        self.window = window
        self.group = group
        self.max_group = max_group
        self.responses = []
        self.promotions = []

    def recent_mean(self, window):
        if not self.responses:
            return None
        return float(np.mean(self.responses[-window:]))

    def decide_many(self, batch):
        if batch == 0:
            return np.zeros(0, dtype=bool)
        prior = len(self.responses) - batch
        tail_start = max(0, prior - (self.window - 1))
        tail = np.asarray(self.responses[tail_start:], dtype=float)
        sums = np.concatenate(([0.0], np.cumsum(tail)))
        end = (prior - tail_start) + 1 + np.arange(batch)
        start = np.maximum(end - self.window, 0)
        means = (sums[end] - sums[start]) / (end - start)
        return means > self.threshold_ms

    def observe(self, response, now_ms):
        self.responses.append(response)
        if self.group >= self.max_group:
            return
        recent = self.recent_mean(self.window)
        if recent is not None and recent > self.threshold_ms:
            self.group += 1
            self.promotions.append(now_ms)

    def observe_many(self, values, stamps):
        self.responses.extend(values.tolist())
        if values.size == 0 or self.group >= self.max_group:
            return
        for index in np.flatnonzero(self.decide_many(values.size)):
            if self.group >= self.max_group:
                break
            self.group += 1
            self.promotions.append(float(stamps[index]))


# A few values whose sums round, so a window summed in another order would
# land on a different float and flip a decision at a threshold drawn from
# the same values.
_RESPONSES = st.sampled_from([0.5, 0.1 + 0.2, 100.0, 1000.0 / 3.0, 1e3, 2000.0, 7777.7])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("one"), _RESPONSES),
        st.tuples(
            st.just("many"), st.lists(_RESPONSES, max_size=3 * RECENT_RESPONSES)
        ),
    ),
    max_size=12,
)


class TestRecentResponseTail:
    @given(
        window=st.integers(1, RECENT_RESPONSES),
        threshold_ms=_RESPONSES,
        max_group=st.integers(1, 40),
        steps=_STEPS,
    )
    @settings(max_examples=150, deadline=None)
    def test_tail_matches_a_full_history(self, window, threshold_ms, max_group, steps):
        policy = ResponseTimeThresholdPolicy(threshold_ms=threshold_ms, window=window)
        moderator = Moderator(policy, max_group=max_group, rng=np.random.default_rng(0))
        device = make_device(group=0)
        reference = _FullHistoryModerator(threshold_ms, window, 0, max_group)
        now_ms = 0.0
        for kind, payload in steps:
            if kind == "one":
                now_ms += 1.0
                moderator.observe(device, payload, now_ms)
                reference.observe(payload, now_ms)
            else:
                values = np.asarray(payload, dtype=float)
                stamps = now_ms + 1.0 + np.arange(values.size, dtype=float)
                now_ms += values.size
                prior = list(device.recent_responses_ms)
                direct = policy.decide_many(
                    device, prior, values, np.random.default_rng(0)
                )
                moderator.observe_many(device, values, stamps)
                reference.observe_many(values, stamps)
                assert direct.tolist() == reference.decide_many(values.size).tolist()
            assert device.responses_recorded == len(reference.responses)
            assert list(device.recent_responses_ms) == reference.responses[-RECENT_RESPONSES:]
            for span in range(1, RECENT_RESPONSES + 1):
                assert device.recent_mean_response_ms(span) == reference.recent_mean(span)
            assert device.promotions == reference.promotions
            assert device.acceleration_group == reference.group

    def test_device_holds_at_most_the_tail(self):
        device = make_device(group=1)
        moderator = Moderator(
            ResponseTimeThresholdPolicy(threshold_ms=1e9),
            max_group=3,
            rng=np.random.default_rng(0),
        )
        for index in range(10_000):
            moderator.observe(device, 100.0 + index, now_ms=float(index))
        moderator.observe_many(
            device, np.full(10_000, 5.0), np.arange(10_000, 20_000, dtype=float)
        )
        held = sum(
            len(value)
            for name, value in vars(device).items()
            if isinstance(value, (list, deque)) and name != "promotions"
        )
        assert held <= RECENT_RESPONSES
        assert device.responses_recorded == 20_000
        assert list(device.recent_responses_ms) == [5.0] * RECENT_RESPONSES
