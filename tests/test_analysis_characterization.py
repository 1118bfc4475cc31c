"""Tests for the simulated instance benchmarking (Section VI-A analysis)."""

import numpy as np
import pytest

from repro.analysis.characterization import (
    BenchmarkResult,
    benchmark_catalog,
    benchmark_instance_type,
    measured_capacities,
    measured_speed_factors,
)
from repro.cloud.catalog import DEFAULT_CATALOG


@pytest.fixture(scope="module")
def nano_benchmark():
    rng = np.random.default_rng(0)
    return benchmark_instance_type(
        DEFAULT_CATALOG.get("t2.nano"), rng=rng, samples_per_level=100
    )


class TestBenchmarkInstanceType:
    def test_sweep_covers_requested_concurrencies(self, nano_benchmark):
        assert nano_benchmark.concurrencies == [1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert len(nano_benchmark.summaries) == 11

    def test_response_time_grows_with_concurrency(self, nano_benchmark):
        means = nano_benchmark.mean_response_ms()
        assert means[100] > means[10] > 0

    def test_std_recorded_per_level(self, nano_benchmark):
        stds = nano_benchmark.std_response_ms()
        assert set(stds) == set(nano_benchmark.concurrencies)
        assert all(value >= 0 for value in stds.values())

    def test_fixed_task_mode_uses_that_task_only(self, rng):
        result = benchmark_instance_type(
            DEFAULT_CATALOG.get("t2.nano"), rng=rng, fixed_task="minimax",
            concurrencies=(1,), samples_per_level=50,
        )
        # The static minimax task costs ~2000 work units at level 1.
        assert result.mean_response_ms()[1] == pytest.approx(2005.0, rel=0.1)

    def test_keep_samples_option(self, rng):
        result = benchmark_instance_type(
            DEFAULT_CATALOG.get("t2.nano"), rng=rng, concurrencies=(1, 10),
            samples_per_level=20, keep_samples=True,
        )
        assert set(result.samples) == {1, 10}
        assert result.samples[1].shape == (20,)

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            benchmark_instance_type(DEFAULT_CATALOG.get("t2.nano"), rng=rng, samples_per_level=0)
        with pytest.raises(ValueError):
            benchmark_instance_type(DEFAULT_CATALOG.get("t2.nano"), rng=rng, concurrencies=(0, 1))

    def test_degradation_slope_positive_and_smaller_for_bigger_instances(self, rng):
        nano = benchmark_instance_type(DEFAULT_CATALOG.get("t2.nano"), rng=rng, samples_per_level=80)
        big = benchmark_instance_type(DEFAULT_CATALOG.get("m4.10xlarge"), rng=rng, samples_per_level=80)
        assert nano.degradation_slope() > big.degradation_slope() > 0


class TestCapacityInterpolation:
    def make_result(self, means):
        return BenchmarkResult(
            instance_type="x",
            concurrencies=[1, 10, 20],
            summaries=[{"mean": m, "std": 0.0} for m in means],
        )

    def test_zero_when_first_point_misses(self):
        assert self.make_result([600.0, 700.0, 800.0]).capacity_under_threshold(500.0) == 0.0

    def test_full_sweep_when_never_crossing(self):
        assert self.make_result([100.0, 200.0, 300.0]).capacity_under_threshold(500.0) == 20.0

    def test_interpolates_between_points(self):
        capacity = self.make_result([100.0, 300.0, 700.0]).capacity_under_threshold(500.0)
        # Crosses 500 halfway between concurrency 10 (300ms) and 20 (700ms).
        assert capacity == pytest.approx(15.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            self.make_result([1.0, 2.0, 3.0]).capacity_under_threshold(0.0)


class TestCatalogBenchmark:
    @pytest.fixture(scope="class")
    def results(self):
        rng = np.random.default_rng(1)
        return benchmark_catalog(
            DEFAULT_CATALOG,
            rng=rng,
            samples_per_level=80,
            type_names=["t2.nano", "t2.micro", "t2.large", "m4.10xlarge"],
        )

    def test_only_requested_types_benchmarked(self, results):
        assert set(results) == {"t2.nano", "t2.micro", "t2.large", "m4.10xlarge"}

    def test_measured_capacities_ordering_matches_instance_power(self, results):
        capacities = measured_capacities(results, response_threshold_ms=1000.0)
        assert capacities["t2.micro"] < capacities["t2.nano"]
        assert capacities["t2.nano"] < capacities["t2.large"]
        assert capacities["t2.large"] < capacities["m4.10xlarge"]

    @pytest.fixture(scope="class")
    def static_results(self):
        # The Fig. 5 setup: a static minimax task removes the task-mix noise,
        # so single-request means reflect the pure execution speed.
        rng = np.random.default_rng(2)
        return benchmark_catalog(
            DEFAULT_CATALOG,
            rng=rng,
            fixed_task="minimax",
            samples_per_level=120,
            type_names=["t2.nano", "t2.micro", "t2.large", "m4.10xlarge"],
        )

    def test_measured_speed_factors_relative_to_slowest(self, static_results):
        speeds = measured_speed_factors(static_results)
        assert speeds["t2.micro"] == pytest.approx(1.0, rel=0.05)
        assert speeds["m4.10xlarge"] > speeds["t2.large"] > speeds["t2.nano"]

    def test_speed_factor_with_explicit_reference(self, static_results):
        speeds = measured_speed_factors(static_results, reference_type="t2.nano")
        assert speeds["t2.nano"] == pytest.approx(1.0, rel=0.02)

    def test_speed_factor_requires_concurrency_one(self):
        bad = {"x": BenchmarkResult(instance_type="x", concurrencies=[10], summaries=[{"mean": 1.0}])}
        with pytest.raises(ValueError):
            measured_speed_factors(bad)
