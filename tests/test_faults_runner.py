"""End-to-end fault-injection tests: resilience A/B, parity, compat, CLI.

The headline pin is the acceptance A/B: at equal seed, the retry +
local-fallback pipeline cuts the failed-request rate of the spot-preemption
storm by at least half against its ``without_resilience`` twin — in both
execution modes.  Around it: a noop ``FaultSpec`` is indistinguishable from
no spec at all, the lenient-outage compat flag reproduces the legacy
drain-through numbers, and the new counters flow through rows, rollups and
the CLI's JSON output (as zeros when faults are off).
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.analysis.metrics import federation_rollup
from repro.cli import main
from repro.faults.spec import (
    ControlPlaneFaults,
    DegradedWindow,
    FaultSpec,
    PreemptionWindow,
    RetryPolicy,
)
from repro.multisite.runner import execute_multisite
from repro.multisite.spec import MultiSiteSpec, OutageWindow, SiteSpec
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.spec import (
    CloudSpec,
    NetworkSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.telemetry import NULL_TELEMETRY

FAULT_BUILTINS = ("spot-preemption-storm", "flaky-uplink", "stale-broker")


def shrink(spec: ScenarioSpec, users=20, hours=0.25, requests=400) -> ScenarioSpec:
    return dataclasses.replace(
        spec,
        users=users,
        duration_hours=hours,
        workload=dataclasses.replace(spec.workload, target_requests=requests),
    )


def run_both(spec: ScenarioSpec, seed: int):
    event = run_scenario(dataclasses.replace(spec, execution="event"), seed=seed)
    batched = run_scenario(dataclasses.replace(spec, execution="batched"), seed=seed)
    return event, batched


def single_site_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="faults-single",
        users=10,
        duration_hours=0.5,
        slot_minutes=10.0,
        workload=WorkloadSpec(pattern="uniform", target_requests=300),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def outage_federation_spec(**overrides) -> ScenarioSpec:
    sites = MultiSiteSpec(
        sites=(
            SiteSpec(
                name="edge",
                cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=6),
                network=NetworkSpec(profile="constant", constant_rtt_ms=30.0),
                wan_rtt_ms=5.0,
                population_share=2.0,
                outages=(OutageWindow(start=0.4, end=0.7),),
            ),
            SiteSpec(
                name="core",
                cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=12),
                network=NetworkSpec(profile="constant", constant_rtt_ms=50.0),
                wan_rtt_ms=40.0,
            ),
        ),
        policy="nearest-rtt",
    )
    defaults = dict(
        name="faults-outage",
        users=10,
        duration_hours=0.5,
        slot_minutes=10.0,
        task_name="fibonacci",
        workload=WorkloadSpec(pattern="fixed", target_requests=233),
        policy=PolicySpec(promotion="static", promotion_probability=0.0),
        sites=sites,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def drop_rate(result) -> float:
    return result.requests_dropped / result.requests_total


class TestResilienceAB:
    """The acceptance criterion: retries + fallback halve the failure rate."""

    @pytest.mark.parametrize("execution", ["event", "batched"])
    def test_spot_preemption_storm_failure_rate_halved(self, execution):
        storm = shrink(get_scenario("spot-preemption-storm"))
        resilient = dataclasses.replace(storm, execution=execution)
        bare = dataclasses.replace(
            resilient, faults=storm.faults.without_resilience()
        )
        with_retry = run_scenario(resilient, seed=3)
        without_retry = run_scenario(bare, seed=3)
        assert drop_rate(without_retry) > 0.0, "the storm must actually bite"
        assert drop_rate(with_retry) <= 0.5 * drop_rate(without_retry)
        # The rescue is visible in the new counters.
        assert with_retry.requests_retried > 0
        assert (
            with_retry.requests_failed_over + with_retry.requests_degraded_local > 0
        )


class TestCrossModeParity:
    def test_storm_counters_and_rows_identical(self):
        event, batched = run_both(shrink(get_scenario("spot-preemption-storm")), 0)
        assert event.as_row() == batched.as_row()
        assert event.site_rows() == batched.site_rows()

    def test_stale_broker_counters_identical(self):
        spec = shrink(get_scenario("stale-broker"), requests=3000)
        event, batched = run_both(spec, 0)
        assert event.as_row() == batched.as_row()
        assert event.requests_retried == batched.requests_retried
        assert event.requests_degraded_local == batched.requests_degraded_local

    def test_flaky_uplink_count_parity(self):
        # Single-site stochastic: counts are exact across modes, response
        # times only within the documented queueing-approximation tolerance.
        event, batched = run_both(shrink(get_scenario("flaky-uplink")), 0)
        assert event.requests_total == batched.requests_total
        assert event.requests_dropped == batched.requests_dropped
        assert event.requests_retried == batched.requests_retried
        assert event.requests_degraded_local == batched.requests_degraded_local
        assert batched.mean_response_ms == pytest.approx(
            event.mean_response_ms, rel=0.10
        )


class TestNoopEquivalence:
    @pytest.mark.parametrize("execution", ["event", "batched"])
    def test_noop_fault_spec_matches_no_spec_single_site(self, execution):
        base = single_site_spec(execution=execution)
        noop = dataclasses.replace(base, faults=FaultSpec())
        assert run_scenario(base, seed=1).as_row() == run_scenario(
            noop, seed=1
        ).as_row()

    def test_noop_fault_spec_matches_no_spec_multisite(self):
        # No outages declared: strict semantics have nothing to kill, so a
        # noop spec must be invisible here too.
        sites = MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="edge",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=6),
                    network=NetworkSpec(profile="constant", constant_rtt_ms=30.0),
                    wan_rtt_ms=5.0,
                ),
                SiteSpec(
                    name="core",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=12),
                    network=NetworkSpec(profile="constant", constant_rtt_ms=50.0),
                    wan_rtt_ms=40.0,
                ),
            ),
            policy="nearest-rtt",
        )
        base = outage_federation_spec(sites=sites, execution="batched")
        noop = dataclasses.replace(base, faults=FaultSpec())
        base_result = run_scenario(base, seed=1)
        noop_result = run_scenario(noop, seed=1)
        assert base_result.as_row() == noop_result.as_row()
        assert base_result.site_rows() == noop_result.site_rows()


class TestOutageSemantics:
    def test_lenient_flag_reproduces_legacy_numbers(self):
        base = outage_federation_spec(execution="batched")
        lenient = dataclasses.replace(
            base, faults=FaultSpec(lenient_outages=True)
        )
        assert run_scenario(base, seed=0).as_row() == run_scenario(
            lenient, seed=0
        ).as_row()

    @pytest.mark.parametrize("execution", ["event", "batched"])
    def test_strict_outages_kill_and_rescue_in_flight_requests(self, execution):
        # A heavy-task flash crowd just before the onset guarantees requests
        # are still in service when the edge site goes dark.
        base = outage_federation_spec(
            execution=execution,
            task_name="minimax",
            workload=WorkloadSpec(
                pattern="flash-crowd",
                target_requests=1500,
                burst_factor=8.0,
                burst_start=0.3,
                burst_duration=0.1,
            ),
        )
        strict = dataclasses.replace(base, faults=FaultSpec())
        legacy = run_scenario(base, seed=0)
        result = run_scenario(strict, seed=0)
        # Strict semantics re-route or degrade the in-flight requests the
        # lenient path lets drain: the rescue counters light up.
        rescued = (
            result.requests_failed_over + result.requests_degraded_local
        )
        assert rescued > 0
        # Every request is still accounted for — kills never lose requests.
        assert result.requests_total == legacy.requests_total

    def test_strict_kill_set_identical_across_modes(self):
        strict = dataclasses.replace(
            outage_federation_spec(
                task_name="minimax",
                workload=WorkloadSpec(
                    pattern="flash-crowd",
                    target_requests=1500,
                    burst_factor=8.0,
                    burst_start=0.3,
                    burst_duration=0.1,
                ),
            ),
            faults=FaultSpec(),
        )
        event, batched = run_both(strict, 0)
        assert event.requests_failed_over + event.requests_degraded_local > 0
        # Under flash-crowd load the response-time percentiles live inside
        # the documented queueing approximation, but the kill/rescue *sets*
        # are decided at the shared brokering step, so every count matches
        # exactly — federation-wide and per site.
        for field in (
            "requests_total",
            "requests_dropped",
            "requests_retried",
            "requests_failed_over",
            "requests_degraded_local",
        ):
            assert getattr(event, field) == getattr(batched, field), field
        for site_event, site_batched in zip(event.sites, batched.sites):
            assert site_event.requests_total == site_batched.requests_total
            assert site_event.requests_retried == site_batched.requests_retried
            assert site_event.requests_failed_over == site_batched.requests_failed_over
            assert (
                site_event.requests_degraded_local
                == site_batched.requests_degraded_local
            )


class TestRegistryScenarios:
    @pytest.mark.parametrize("name", FAULT_BUILTINS)
    def test_builtin_runs_and_reports_fault_activity(self, name):
        spec = shrink(get_scenario(name), requests=600)
        result = run_scenario(dataclasses.replace(spec, execution="batched"), seed=0)
        assert result.requests_total > 0
        assert (
            result.requests_retried
            + result.requests_degraded_local
            + result.requests_failed_over
            + result.requests_dropped
        ) > 0

    def test_validation_rejects_misconfigured_fault_planes(self):
        with pytest.raises(ValueError, match="single-site"):
            single_site_spec(
                faults=FaultSpec(
                    preemptions=(
                        PreemptionWindow(start=0.1, end=0.2, site="spot"),
                    )
                )
            )
        with pytest.raises(ValueError, match="dynamic-load"):
            single_site_spec(
                faults=FaultSpec(control_plane=ControlPlaneFaults())
            )
        with pytest.raises(ValueError, match="unknown site"):
            outage_federation_spec(
                faults=FaultSpec(
                    preemptions=(
                        PreemptionWindow(start=0.1, end=0.2, site="nope"),
                    )
                )
            )


class TestRollupAndCli:
    def test_federation_rollup_sums_new_counters(self):
        result = run_scenario(
            dataclasses.replace(
                shrink(get_scenario("spot-preemption-storm")), execution="batched"
            ),
            seed=0,
        )
        rollup = federation_rollup(result.sites)
        assert rollup["retried"] == float(result.requests_retried)
        assert rollup["failed_over"] == float(result.requests_failed_over)
        assert rollup["degraded_local"] == float(result.requests_degraded_local)

    def test_cli_json_zero_counters_when_faults_off(self, capsys):
        code = main(
            [
                "scenario", "run", "paper-baseline",
                "--users", "8", "--hours", "0.25", "--requests", "60",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests_retried"] == 0
        assert payload["requests_failed_over"] == 0
        assert payload["requests_degraded_local"] == 0

    def test_cli_json_reports_fault_counters(self, capsys):
        code = main(
            [
                "scenario", "run", "flaky-uplink",
                "--users", "10", "--hours", "0.25", "--requests", "300",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests_retried"] > 0

    def test_cli_table_includes_new_columns(self, capsys):
        code = main(
            [
                "scenario", "run", "spot-preemption-storm",
                "--users", "10", "--hours", "0.25", "--requests", "200",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        for column in ("retried", "failed_over", "degraded_local"):
            assert column in output


class TestZeroPenaltyFailover:
    """Failover on a static federation whose WAN penalty matrix is all zero.

    Such a broker keeps no per-request WAN penalty column, so a re-homed
    request's T1 adjustment reads the old penalty from the matrix.  The
    pins are the values the run gave while the column still existed.
    """

    @staticmethod
    def spec(execution: str) -> ScenarioSpec:
        sites = MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="edge",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=6),
                    population_share=2.0,
                    outages=(OutageWindow(start=0.4, end=0.7),),
                ),
                SiteSpec(
                    name="core",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=12),
                ),
            ),
            policy="nearest-rtt",
        )
        return ScenarioSpec(
            name="zero-wan-failover",
            users=10,
            duration_hours=0.5,
            slot_minutes=10.0,
            task_name="minimax",
            execution=execution,
            workload=WorkloadSpec(
                pattern="flash-crowd",
                target_requests=1500,
                burst_factor=8.0,
                burst_start=0.3,
                burst_duration=0.1,
            ),
            policy=PolicySpec(promotion="static", promotion_probability=0.0),
            sites=sites,
            faults=FaultSpec(
                offload_failure_probability=0.1,
                retry=RetryPolicy(max_attempts=3, reroute_on_retry=True),
            ),
        )

    @pytest.mark.parametrize("execution", ["event", "batched"])
    def test_rehomed_site_and_t1_match_the_pins(self, execution):
        run = execute_multisite(self.spec(execution), 0, NULL_TELEMETRY)
        overlay = run.fault_plane.overlay
        site_ids = run.slot_broker.site_ids
        t1 = run.plan.t1_ms
        moved = np.flatnonzero(overlay.rerouted)
        assert moved.size == 122
        assert int(overlay.killed.sum()) == 6
        assert [
            (int(index), int(site_ids[index]), float(t1[index]).hex())
            for index in moved[:3]
        ] == [
            (6, 1, "0x1.aa6cf03d9806ep+4"),
            (7, 1, "0x1.35200f4cdbf64p+3"),
            (12, 1, "0x1.a21e12a2d4510p+5"),
        ]
        assert hashlib.sha256(t1.tobytes()).hexdigest()[:16] == "e17018ed9f4a2660"
        assert (
            hashlib.sha256(site_ids.astype(np.int64).tobytes()).hexdigest()[:16]
            == "8a1c5ea4266824b6"
        )
