"""Tests for the communication channel and response-time decomposition."""

import numpy as np
import pytest

from repro.network.channel import CommunicationChannel, ResponseTimeBreakdown
from repro.network.latency import ConstantLatencyModel


class TestResponseTimeBreakdown:
    def test_total_is_sum_of_components(self):
        breakdown = ResponseTimeBreakdown(t1_ms=40.0, t2_ms=10.0, routing_ms=150.0, cloud_ms=2000.0)
        assert breakdown.total_ms == pytest.approx(2200.0)


class TestCommunicationChannel:
    def test_t1_is_full_round_trip_of_access_model(self, rng):
        channel = CommunicationChannel(
            access_model=ConstantLatencyModel(40.0),
            intra_cloud_model=ConstantLatencyModel(10.0),
            rng=rng,
        )
        hours = np.asarray([0.0, 12.0, 20.0])
        assert channel.sample_t1_many(hours).tolist() == [40.0, 40.0, 40.0]
        assert channel.sample_t2_many(hours).tolist() == [10.0, 10.0, 10.0]

    def test_default_channel_keeps_communication_under_a_second(self, rng):
        """The paper observes T1 + T2 well under one second over LTE."""
        channel = CommunicationChannel(rng=rng)
        hours = np.full(500, 12.0)
        totals = channel.sample_t1_many(hours) + channel.sample_t2_many(hours)
        assert np.mean(totals) < 1000.0

    def test_intra_cloud_latency_is_small_and_stable(self, rng):
        """T2 comes from the cloud's private network: small mean, small spread."""
        channel = CommunicationChannel(rng=rng)
        samples = channel.sample_t2_many(np.full(500, 12.0))
        assert np.mean(samples) < 30.0
        assert np.std(samples) < np.mean(samples)
