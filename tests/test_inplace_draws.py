"""The in-place bulk draws equal their out-of-place forms bit for bit.

The plan's draws work in the arrays they return instead of allocating a
temporary per operation.  Each property below runs a test-local
out-of-place reference on an identically seeded generator and compares
the two results as raw bits (``.view(np.int64)``), then checks that both
generators are left in the same state.
"""

from typing import List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobile.tasks import OffloadableTask
from repro.network.latency import LogNormalLatencyModel
from repro.sdn.accelerator import draw_routing_overhead_ms
from repro.workload.arrival import (
    _INITIAL_CHUNK,
    ArrivalProcess,
    FixedRateArrivalProcess,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def assert_same_bits(left: np.ndarray, right: np.ndarray) -> None:
    assert left.dtype == right.dtype == np.float64
    assert left.shape == right.shape
    assert np.array_equal(left.view(np.int64), right.view(np.int64))


def assert_same_state(left: np.random.Generator, right: np.random.Generator) -> None:
    assert left.integers(2**62) == right.integers(2**62)


# -- latency ----------------------------------------------------------------------


def reference_sample_many_at(model, rng, hours_of_day):
    hours = np.asarray(hours_of_day, dtype=float)
    base = rng.lognormal(mean=model.mu, sigma=model.sigma, size=hours.shape)
    if model.diurnal_amplitude == 0.0:
        return np.maximum(base, model.floor_ms)
    wrapped = hours % 24.0
    phase = 2.0 * np.pi * (wrapped - model.peak_hour) / 24.0
    factors = 1.0 + model.diurnal_amplitude * np.cos(phase)
    return np.maximum(base * factors, model.floor_ms)


@st.composite
def latency_models(draw):
    median = draw(st.floats(min_value=0.5, max_value=300.0))
    ratio = draw(st.floats(min_value=1.0, max_value=6.0))
    amplitude = draw(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99))
    )
    return LogNormalLatencyModel(
        median_ms=median,
        mean_ms=median * ratio,
        floor_ms=draw(st.floats(min_value=0.0, max_value=200.0)),
        diurnal_amplitude=amplitude,
        peak_hour=draw(st.floats(min_value=-30.0, max_value=50.0)),
    )


class TestSampleManyAt:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        model=latency_models(),
        hours=st.lists(
            st.floats(min_value=-500.0, max_value=500.0), min_size=0, max_size=300
        ),
        seed=seeds,
    )
    def test_matches_out_of_place_reference(self, model, hours, seed):
        # Hours below 0 and at or past 24 exercise the wrap.
        hours = np.asarray(hours + [-0.5, 24.0, 47.25], dtype=float)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        samples = model.sample_many_at(fast, hours)
        assert_same_bits(samples, reference_sample_many_at(model, slow, hours))
        assert_same_state(fast, slow)

    def test_caller_hours_are_not_modified(self):
        model = LogNormalLatencyModel(median_ms=30.0, mean_ms=40.0)
        hours = np.array([-3.0, 25.0, 47.9])
        kept = hours.copy()
        model.sample_many_at(np.random.default_rng(0), hours)
        assert_same_bits(hours, kept)


# -- routing overheads and work units ---------------------------------------------


class TestFlooredDraws:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(count=st.integers(min_value=0, max_value=3000), seed=seeds)
    def test_routing_overhead_matches_reference(self, count, seed):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = draw_routing_overhead_ms(fast, count)
        reference = np.maximum(slow.normal(150.0, 25.0, size=count), 1.0)
        assert_same_bits(drawn, reference)
        assert_same_state(fast, slow)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        work=st.floats(min_value=1e-3, max_value=1e6),
        # Large variabilities put many draws on the 10% floor.
        variability=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=4.0)),
        count=st.integers(min_value=0, max_value=2000),
        seed=seeds,
    )
    def test_work_units_match_reference(self, work, variability, count, seed):
        task = OffloadableTask(name="t", work_units=work, work_variability=variability)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = task.sample_work_units_many(fast, count)
        if variability == 0:
            reference = np.full(count, work)
        else:
            reference = np.maximum(
                slow.normal(work, work * variability, size=count), work * 0.1
            )
        assert_same_bits(drawn, reference)
        assert_same_state(fast, slow)


# -- arrivals ---------------------------------------------------------------------


class ChoiceGaps(ArrivalProcess):
    """Gaps drawn from a small set of exact values, zeros included."""

    def __init__(self, values: List[float]) -> None:
        self.values = np.asarray(values, dtype=float)

    def sample_gaps_ms(self, rng, size):
        return rng.choice(self.values, size=size)


def reference_arrival_times(
    process, rng, *, start_ms: float, end_ms: float, max_arrivals: Optional[int]
) -> np.ndarray:
    """Every chunk concatenated, then a boolean mask over the whole run."""
    pieces = []
    generated = 0
    offset = start_ms
    chunk = _INITIAL_CHUNK
    while offset < end_ms:
        times = offset + np.cumsum(process.sample_gaps_ms(rng, chunk))
        advanced = float(times[-1])
        assert advanced > offset
        pieces.append(times)
        generated += times.size
        offset = advanced
        if max_arrivals is not None and generated >= max_arrivals:
            break
        chunk *= 2
    merged = np.concatenate(pieces) if pieces else np.empty(0, dtype=float)
    merged = merged[merged < end_ms]
    if max_arrivals is not None:
        merged = merged[:max_arrivals]
    return merged


class TestArrivalTimes:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        # Integer-valued gaps sum exactly, so arrivals land on integer
        # horizons; repeated zeros give runs of equal arrival times.
        values=st.lists(
            st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=6
        ).filter(lambda values: any(values)),
        start=st.integers(min_value=0, max_value=50),
        length=st.integers(min_value=0, max_value=6000),
        max_arrivals=st.one_of(st.none(), st.integers(min_value=0, max_value=5000)),
        seed=seeds,
    )
    def test_matches_mask_reference(self, values, start, length, max_arrivals, seed):
        process = ChoiceGaps(values)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        window = dict(start_ms=float(start), end_ms=float(start + length))
        times = process.arrival_times_array(fast, max_arrivals=max_arrivals, **window)
        reference = reference_arrival_times(
            process, slow, max_arrivals=max_arrivals, **window
        )
        assert_same_bits(times, reference)
        assert_same_state(fast, slow)

    def test_arrival_on_the_horizon_is_excluded(self):
        process = FixedRateArrivalProcess(rate_hz=1.0)
        rng = np.random.default_rng(0)
        times = process.arrival_times_array(rng, start_ms=0.0, end_ms=5000.0)
        assert times.tolist() == [1000.0, 2000.0, 3000.0, 4000.0]

    def test_zero_gap_runs_reaching_the_horizon_are_all_excluded(self):
        # Gaps 1000, 0, 0, 1000, 0, 0, ...: three arrivals at each second.
        class Triples(ArrivalProcess):
            def sample_gaps_ms(self, rng, size):
                gaps = np.zeros(size)
                gaps[::3] = 1000.0
                return gaps

        times = Triples().arrival_times_array(
            np.random.default_rng(0), start_ms=0.0, end_ms=3000.0
        )
        assert times.tolist() == [1000.0] * 3 + [2000.0] * 3
