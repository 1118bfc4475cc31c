"""The zero-cost telemetry contract, end to end.

Telemetry must be a pure *observer*: enabling it may not change a single
simulated number.  Every executor × topology combination therefore runs the
same seeded scenario with telemetry on and off and requires the two
:class:`ScenarioResult` payloads to be **equal** (the dataclass holds only
plain scalars and tuples, so ``==`` is bitwise for our purposes).  The
registry side is pinned too: identical seeds must yield identical metric
exports, histogram buckets included — registry values are simulated
quantities, never wall clock.
"""

import dataclasses
import json

import pytest

from repro.scenarios import get_scenario, run_scenario
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.cli import _jsonify, main


def small(name, **overrides):
    return get_scenario(name).with_overrides(
        users=10, duration_hours=0.5, target_requests=150, **overrides
    )


def normalized(result):
    """A NaN-safe comparable payload (NaN != NaN under dataclass ==)."""
    return _jsonify(dataclasses.asdict(result))


CASES = [
    ("paper-baseline", "event"),
    ("paper-baseline", "batched"),
    ("hotspot-spillover", "event"),
    ("hotspot-spillover", "batched"),
]


class TestResultParity:
    @pytest.mark.parametrize("name,execution", CASES)
    def test_results_identical_with_telemetry_on_and_off(self, name, execution):
        spec = small(name, execution=execution)
        off = run_scenario(spec, seed=0, telemetry=NULL_TELEMETRY)
        on = run_scenario(spec, seed=0, telemetry=Telemetry())
        assert normalized(on) == normalized(off)

    def test_spec_knob_resolves_to_live_collector_without_changing_results(self):
        spec = small("paper-baseline", execution="batched")
        plain = run_scenario(spec, seed=3)
        via_knob = run_scenario(spec.with_overrides(telemetry=True), seed=3)
        assert normalized(via_knob) == normalized(plain)


class TestRegistryDeterminism:
    @pytest.mark.parametrize("name,execution", CASES)
    def test_metric_exports_identical_across_reruns(self, name, execution):
        spec = small(name, execution=execution)
        exports = []
        for _ in range(2):
            telemetry = Telemetry()
            run_scenario(spec, seed=1, telemetry=telemetry)
            exports.append(telemetry.registry.as_dict())
        # histogram bucket counts included: fixed edges, simulated values only
        assert exports[0] == exports[1]

    def test_federation_metrics_cover_sites_and_rollup(self):
        telemetry = Telemetry()
        result = run_scenario(
            small("hotspot-spillover", execution="event"),
            seed=0,
            telemetry=telemetry,
        )
        payload = telemetry.registry.as_dict()
        counters, gauges = payload["counters"], payload["gauges"]
        for site in result.sites:
            assert counters[f"site.{site.name}.requests_total"] == site.requests_total
        assert gauges["federation.requests"] == result.requests_total
        shares = [
            gauges[f"site.{site.name}.routing_share"] for site in result.sites
        ]
        assert sum(shares) == pytest.approx(1.0)

    def test_engine_counters_published(self):
        telemetry = Telemetry()
        result = run_scenario(
            small("paper-baseline", execution="event"), seed=0, telemetry=telemetry
        )
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["engine.events_processed"] > result.requests_total
        assert counters["scenario.requests_total"] == result.requests_total


class TestTimelineAcceptance:
    @pytest.mark.parametrize("name,execution", CASES)
    def test_coverage_and_top_phases(self, name, execution):
        telemetry = Telemetry()
        run_scenario(small(name, execution=execution), seed=0, telemetry=telemetry)
        # acceptance: the slot-phase timeline accounts for >= 90% of the run
        assert telemetry.tracer.coverage() >= 0.90
        top = telemetry.tracer.top_phases(3)
        assert len(top) == 3
        assert all(name for name, _ in top)
        assert len(telemetry.summary_lines()) == 2

    @pytest.mark.parametrize("name,execution", CASES)
    def test_coverage_holds_on_every_repeated_run(self, name, execution):
        # A cyclic-GC pause or a one-time lazy import that lands between
        # spans takes the whole run below the bar, so one lucky run proves
        # little: every one of 20 in-process runs must reach it.
        spec = small(name, execution=execution)
        coverages = []
        for _ in range(20):
            telemetry = Telemetry()
            run_scenario(spec, seed=0, telemetry=telemetry)
            coverages.append(telemetry.tracer.coverage())
        assert min(coverages) >= 0.90, coverages


class TestTelemetryCli:
    def test_run_with_telemetry_prints_phase_and_metric_tables(self, capsys):
        code = main([
            "scenario", "run", "paper-baseline", "--telemetry",
            "--users", "10", "--hours", "0.5", "--requests", "150",
            "--execution", "batched",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "top phases by self time:" in out
        assert "slot.serve" in out
        assert "engine.events_processed" in out

    def test_json_payload_embeds_telemetry(self, capsys):
        code = main([
            "scenario", "run", "paper-baseline", "--telemetry", "--json",
            "--users", "10", "--hours", "0.5", "--requests", "150",
            "--execution", "batched",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry"]["enabled"] is True
        assert payload["telemetry"]["metrics"]["counters"]
        # The root span is ``scenario.run``: argument parsing and JSON
        # serialisation happen outside it and never count against coverage.
        assert 0.90 <= payload["telemetry"]["trace"]["coverage"] <= 1.0

    def test_json_without_flag_has_no_telemetry_key(self, capsys):
        code = main([
            "scenario", "run", "paper-baseline", "--json",
            "--users", "10", "--hours", "0.5", "--requests", "150",
            "--execution", "batched",
        ])
        assert code == 0
        assert "telemetry" not in json.loads(capsys.readouterr().out)

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "traces" / "run.json"
        code = main([
            "scenario", "run", "hotspot-spillover",
            "--trace-out", str(trace_path),
            "--users", "10", "--hours", "0.5", "--requests", "150",
            "--execution", "event",
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"scenario.run", "slot.serve", "slot.broker"} <= names
        assert "wrote Chrome trace" in capsys.readouterr().err
