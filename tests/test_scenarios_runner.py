"""Tests for the scenario runner: spec -> simulation -> metrics."""

import math

import numpy as np
import pytest

from repro.cloud.catalog import DEFAULT_CATALOG
from repro.network.latency import ConstantLatencyModel, LogNormalLatencyModel
from repro.scenarios import (
    CloudSpec,
    NetworkSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
    build_arrival_process,
    get_scenario,
    run_scenario,
)
from repro.mobile.tasks import DEFAULT_TASK_POOL
from repro.multisite.federation import build_federation, build_site_catalog
from repro.scenarios.runner import build_channel
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams
from repro.telemetry import Telemetry, build_run_record
from repro.workload.arrival import ModulatedPoissonProcess


def small_spec(name="small", **kwargs) -> ScenarioSpec:
    defaults = dict(
        name=name,
        users=10,
        duration_hours=0.5,
        slot_minutes=10.0,
        workload=WorkloadSpec(pattern="uniform", target_requests=150),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestArrivalCalibration:
    @pytest.mark.parametrize("pattern", ["poisson", "flash-crowd", "diurnal", "bursty"])
    def test_every_pattern_hits_target_request_count(self, pattern):
        duration_ms = 2 * 3_600_000.0
        workload = WorkloadSpec(pattern=pattern, target_requests=1000)
        process = build_arrival_process(workload, duration_ms)
        rng = np.random.default_rng(0)
        counts = [
            len(process.arrival_times_ms(rng, start_ms=0.0, end_ms=duration_ms))
            for _ in range(5)
        ]
        assert abs(np.mean(counts) - 1000) < 150

    def test_flash_crowd_concentrates_arrivals_in_burst_window(self):
        duration_ms = 3_600_000.0
        workload = WorkloadSpec(
            pattern="flash-crowd",
            target_requests=4000,
            burst_factor=8.0,
            burst_start=0.5,
            burst_duration=0.1,
        )
        process = build_arrival_process(workload, duration_ms)
        times = np.asarray(
            process.arrival_times_ms(
                np.random.default_rng(1), start_ms=0.0, end_ms=duration_ms
            )
        )
        window = (times >= 0.5 * duration_ms) & (times < 0.6 * duration_ms)
        in_burst_rate = window.sum() / 0.1
        out_rate = (~window).sum() / 0.9
        assert in_burst_rate > 4 * out_rate

    def test_diurnal_peak_hour_is_busier_than_trough(self):
        duration_ms = 24 * 3_600_000.0
        workload = WorkloadSpec(
            pattern="diurnal", target_requests=5000, trough_factor=0.2, peak_hour=20.0
        )
        process = build_arrival_process(workload, duration_ms)
        times = np.asarray(
            process.arrival_times_ms(
                np.random.default_rng(2), start_ms=0.0, end_ms=duration_ms
            )
        )
        hours = (times / 3_600_000.0) % 24.0
        peak = ((hours >= 19) & (hours < 21)).sum()
        trough = ((hours >= 7) & (hours < 9)).sum()
        assert peak > 2 * trough

    def test_modulated_process_used_for_shaped_patterns(self):
        process = build_arrival_process(
            WorkloadSpec(pattern="bursty", target_requests=100), 3_600_000.0
        )
        assert isinstance(process, ModulatedPoissonProcess)


class TestBuilders:
    def test_implicit_site_catalog_applies_price_multipliers(self):
        spec = small_spec(
            cloud=CloudSpec(price_multipliers={"m4.4xlarge": 8.0})
        )
        federation = build_federation(
            scenario=spec,
            engine=SimulationEngine(),
            streams=RandomStreams(0),
            task=DEFAULT_TASK_POOL.get(spec.task_name),
            with_accelerators=False,
        )
        catalog = build_site_catalog(federation.site(0).spec)
        base = DEFAULT_CATALOG.get("m4.4xlarge").price_per_hour
        assert catalog.get("m4.4xlarge").price_per_hour == pytest.approx(8.0 * base)
        assert catalog.get("t2.nano").price_per_hour == pytest.approx(
            DEFAULT_CATALOG.get("t2.nano").price_per_hour
        )

    def test_build_channel_profiles(self):
        rng = np.random.default_rng(0)
        constant = build_channel(
            NetworkSpec(profile="constant", constant_rtt_ms=80.0), rng
        )
        assert isinstance(constant.access_model, ConstantLatencyModel)
        assert constant.access_model.rtt_ms == 80.0
        degraded = build_channel(NetworkSpec(profile="degraded-3g", degradation=2.0), rng)
        plain = build_channel(NetworkSpec(profile="3g"), rng)
        assert isinstance(degraded.access_model, LogNormalLatencyModel)
        assert degraded.access_model.mean_ms == pytest.approx(
            2.0 * plain.access_model.mean_ms
        )


class TestImplicitSite:
    """A spec without ``sites:`` runs as a one-site federation, reported as single-site."""

    @pytest.mark.parametrize("execution", ["event", "batched"])
    def test_result_carries_no_site_breakdown(self, execution):
        result = run_scenario(small_spec(execution=execution), seed=0)
        assert result.sites == ()
        assert result.slot_site_requests == ()
        assert not result.is_multisite

    @pytest.mark.parametrize("execution", ["event", "batched"])
    def test_record_has_no_federation_signals(self, execution):
        spec = small_spec(execution=execution)
        telemetry = Telemetry()
        result = run_scenario(spec, seed=0, telemetry=telemetry)
        record = build_run_record(spec, result, telemetry, environment=False)
        names = [*record.counters, *record.gauges, *record.series]
        assert names
        assert not [
            name
            for name in names
            if name.startswith(("site.", "federation.", "broker."))
        ]


class TestRunScenario:
    def test_small_run_produces_sane_metrics(self):
        result = run_scenario(small_spec(), seed=0)
        assert result.requests_total > 50
        assert result.requests_succeeded + result.requests_dropped == result.requests_total
        assert 0.0 <= result.drop_rate <= 1.0
        assert result.p50_response_ms <= result.p95_response_ms <= result.p99_response_ms
        assert result.mean_response_ms > 0
        assert result.allocation_cost_usd > 0
        assert result.scaling_actions == 3
        assert 0.0 <= result.mean_utilization <= 1.0

    def test_identical_seed_gives_identical_metrics(self):
        spec = small_spec()
        first = run_scenario(spec, seed=5)
        second = run_scenario(spec, seed=5)
        assert first.as_row() == second.as_row()

    def test_different_seeds_differ(self):
        spec = small_spec()
        assert run_scenario(spec, seed=1).as_row() != run_scenario(spec, seed=2).as_row()

    def test_spec_seed_used_when_no_override_given(self):
        spec = small_spec(seed=11)
        assert run_scenario(spec).seed == 11
        assert run_scenario(spec, seed=3).seed == 3

    def test_cold_history_never_predicts(self):
        spec = small_spec(
            name="cold",
            duration_hours=0.5,
            slot_minutes=10.0,
            policy=PolicySpec(min_history=6),
        )
        result = run_scenario(spec, seed=0)
        assert result.predictions == 0
        assert math.isnan(result.prediction_accuracy)
        assert result.scaling_actions == 3  # reactive bootstrap still ran

    def test_warm_history_predicts_and_scores_accuracy(self):
        spec = small_spec(name="warm", duration_hours=1.0, slot_minutes=10.0)
        result = run_scenario(spec, seed=0)
        assert result.predictions >= 3
        assert 0.0 <= result.prediction_accuracy <= 1.0

    def test_price_multiplier_changes_allocation_cost(self):
        base = run_scenario(small_spec(name="cheap", duration_hours=1.0), seed=0)
        spiked = run_scenario(
            small_spec(
                name="spiked",
                duration_hours=1.0,
                cloud=CloudSpec(price_multipliers={"t2.nano": 20.0}),
            ),
            seed=0,
        )
        assert spiked.allocation_cost_usd > base.allocation_cost_usd

    def test_round_robin_routing_runs(self):
        result = run_scenario(
            small_spec(name="rr", policy=PolicySpec(routing="round-robin")), seed=0
        )
        assert result.requests_total > 0

    def test_nan_metrics_render_as_na_in_rows(self):
        import dataclasses

        result = run_scenario(small_spec(), seed=0)
        starved = dataclasses.replace(
            result,
            mean_response_ms=float("nan"),
            p50_response_ms=float("nan"),
            p95_response_ms=float("nan"),
            p99_response_ms=float("nan"),
            prediction_accuracy=float("nan"),
        )
        row = starved.as_row()
        for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "pred_accuracy_pct"):
            assert row[key] == "n/a"

    def test_builtin_paper_baseline_runs_scaled_down(self):
        spec = get_scenario("paper-baseline").with_overrides(
            users=10, duration_hours=0.5, target_requests=100
        )
        result = run_scenario(spec, seed=0)
        assert result.name == "paper-baseline"
        assert result.requests_total > 0
