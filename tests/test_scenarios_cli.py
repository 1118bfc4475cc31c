"""Tests for the ``repro-accel scenario`` CLI verbs."""

import pytest

from repro.cli import build_parser, main


class TestScenarioParser:
    def test_scenario_subcommands_exist(self):
        parser = build_parser()
        assert parser.parse_args(["scenario", "list"]).scenario_command == "list"
        args = parser.parse_args(["scenario", "run", "paper-baseline", "--seed", "4"])
        assert args.name == "paper-baseline"
        assert args.seed == 4
        # No --seed means "defer to the spec's pinned seed" (None), so the
        # run and campaign paths agree on which seed a scenario gets.
        assert parser.parse_args(["scenario", "run", "x"]).seed is None
        args = parser.parse_args(["scenario", "campaign", "--workers", "4"])
        assert args.workers == 4
        assert args.execution is None
        args = parser.parse_args(["scenario", "campaign", "--execution", "batched"])
        assert args.execution == "batched"

    def test_scenario_without_verb_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])


class TestScenarioExecution:
    def test_list_prints_registry(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("paper-baseline", "flash-crowd", "cold-history"):
            assert name in output

    def test_run_with_overrides(self, capsys):
        code = main(
            [
                "scenario", "run", "paper-baseline",
                "--users", "8", "--hours", "0.25", "--requests", "60",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "paper-baseline" in output
        assert "p95_ms" in output

    def test_run_unknown_scenario_exits_nonzero(self, capsys):
        assert main(["scenario", "run", "does-not-exist"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_invalid_override_exits_nonzero(self, capsys):
        assert main(["scenario", "run", "paper-baseline", "--users", "0"]) == 2
        assert "users must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("hours", ["nan", "inf"])
    def test_run_non_finite_hours_exits_2_with_error(self, capsys, hours):
        assert main(["scenario", "run", "paper-baseline", "--hours", hours]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "duration_hours must be positive and finite" in err

    def test_campaign_invalid_workers_exits_nonzero(self, capsys):
        assert main(["scenario", "campaign", "--workers", "0",
                     "--only", "cold-history"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_campaign_subset_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code = main(
            [
                "scenario", "campaign",
                "--only", "cold-history",
                "--workers", "1",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "cold-history" in output
        assert csv_path.exists()

    def test_campaign_unknown_subset_exits_nonzero(self, capsys):
        assert main(["scenario", "campaign", "--only", "ghost"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_campaign_batched_execution_flag(self, capsys):
        code = main(
            [
                "scenario", "campaign",
                "--only", "cold-history,region-outage-failover",
                "--workers", "1",
                "--execution", "batched",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "cold-history" in output
        assert "region-outage-failover" in output

    def test_run_multisite_prints_site_table(self, capsys):
        code = main(
            [
                "scenario", "run", "edge-vs-core",
                "--users", "8", "--hours", "0.25", "--requests", "60",
                "--execution", "batched",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "edge-vs-core" in output
        for column in ("site", "cost_usd"):
            assert column in output
        assert "edge" in output and "core" in output

    def test_list_shows_site_counts(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        assert "2:failover" in output
        assert "2:nearest-rtt" in output


class TestBrokerFlag:
    def test_unknown_broker_lists_valid_policies(self, capsys):
        code = main(["scenario", "run", "hotspot-spillover", "--broker", "teleport"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown broker policy 'teleport'" in err
        assert "dynamic-load" in err and "weighted-load" in err

    def test_broker_on_single_site_scenario_errors(self, capsys):
        code = main(["scenario", "run", "paper-baseline", "--broker", "dynamic-load"])
        assert code == 2
        assert "single-site" in capsys.readouterr().err

    def test_broker_override_runs_multisite_scenario(self, capsys):
        code = main(
            [
                "scenario", "run", "hotspot-spillover",
                "--broker", "weighted-load",
                "--users", "8", "--hours", "0.1", "--requests", "300",
                "--execution", "batched",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "hotspot" in output and "overflow" in output
        # Multi-site runs print the per-slot routing-share table.
        assert "share_hotspot" in output and "share_overflow" in output

    def test_campaign_broker_validation(self, capsys):
        code = main(
            ["scenario", "campaign", "--only", "load-chase", "--broker", "nope"]
        )
        assert code == 2
        assert "unknown broker policy" in capsys.readouterr().err

    def test_campaign_broker_on_single_site_scenario_errors(self, capsys):
        code = main(
            ["scenario", "campaign", "--only", "cold-history",
             "--broker", "dynamic-load"]
        )
        assert code == 2
        assert "single-site" in capsys.readouterr().err


class TestJsonOutput:
    def test_json_includes_spillover_fields(self, capsys):
        import json as json_module

        code = main(
            [
                "scenario", "run", "hotspot-spillover",
                "--users", "8", "--hours", "0.1", "--requests", "900",
                "--execution", "batched", "--json",
            ]
        )
        assert code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["name"] == "hotspot-spillover"
        assert "requests_spilled" in payload
        assert "slot_site_requests" in payload
        assert isinstance(payload["slot_site_requests"], list)
        assert {site["name"] for site in payload["sites"]} == {"hotspot", "overflow"}
        for site in payload["sites"]:
            assert "requests_spilled_in" in site

    def test_json_is_strict_even_with_nan_metrics(self, capsys):
        import json as json_module

        # 100 requests over 0.1 h never yields a prediction, so
        # prediction_accuracy is NaN — the JSON must still be RFC-8259
        # strict (null, never a bare NaN token).
        code = main(
            [
                "scenario", "run", "paper-baseline",
                "--users", "5", "--hours", "0.1", "--requests", "100",
                "--execution", "batched", "--json",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        payload = json_module.loads(output, parse_constant=lambda token: pytest.fail(
            f"non-strict JSON token {token!r} in --json output"
        ))
        assert payload["prediction_accuracy"] is None

    def test_json_round_trips_request_conservation(self, capsys):
        import json as json_module

        code = main(
            [
                "scenario", "run", "load-chase",
                "--users", "8", "--hours", "0.25", "--requests", "400",
                "--execution", "batched", "--json",
            ]
        )
        assert code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert (
            sum(site["requests_total"] for site in payload["sites"])
            + payload["requests_unrouted"]
            == payload["requests_total"]
        )


class TestCampaignNewScenarios:
    def test_campaign_covers_dynamic_scenarios_batched(self, capsys):
        code = main(
            [
                "scenario", "campaign",
                "--only", "hotspot-spillover,load-chase",
                "--workers", "1",
                "--execution", "batched",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "hotspot-spillover" in output
        assert "load-chase" in output
        assert "spilled" in output


class TestCapacitySignalFlag:
    def test_unknown_signal_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "mixed-fleet-miscount",
                 "--capacity-signal", "per-site"]
            )

    def test_signal_on_single_site_scenario_errors(self, capsys):
        code = main(
            ["scenario", "run", "paper-baseline", "--capacity-signal", "fleet"]
        )
        assert code == 2
        assert "single-site" in capsys.readouterr().err

    def test_fleet_override_runs_and_prints_group_rows(self, capsys):
        code = main(
            [
                "scenario", "run", "mixed-fleet-miscount",
                "--capacity-signal", "fleet",
                "--users", "8", "--hours", "0.1", "--requests", "600",
                "--execution", "batched",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "lean" in output and "roomy" in output
        # The per-(site, group) rollup table, with federation totals.
        assert "group" in output
        assert "share_lean" in output and "share_roomy" in output

    def test_json_includes_per_group_site_rows(self, capsys):
        import json as json_module

        code = main(
            [
                "scenario", "run", "mixed-fleet-miscount",
                "--users", "8", "--hours", "0.1", "--requests", "600",
                "--execution", "batched", "--json",
            ]
        )
        assert code == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert {site["name"] for site in payload["sites"]} == {"lean", "roomy"}
        for site in payload["sites"]:
            assert "groups" in site
            for entry in site["groups"]:
                assert {"group", "requests_total", "requests_dropped"} <= set(entry)


_RUN_ARGV = [
    "scenario", "run", "paper-baseline",
    "--users", "8", "--hours", "0.25", "--requests", "60",
]
_CAMPAIGN_ARGV = ["scenario", "campaign", "--only", "cold-history", "--workers", "1"]
_EXPORT_ARGV = ["export", "--samples", "5"]


class TestUnwritableOutputPath:
    @pytest.mark.parametrize(
        "argv, option, target",
        [
            (_RUN_ARGV, "--record-out", "sub"),
            (_RUN_ARGV, "--metrics-out", "m.json"),
            (_RUN_ARGV, "--trace-out", "t.json"),
            (_CAMPAIGN_ARGV, "--record-out", "sub"),
            (_CAMPAIGN_ARGV, "--csv", "out.csv"),
            (_EXPORT_ARGV, "--output-dir", "sub"),
        ],
        ids=[
            "run-record", "run-metrics", "run-trace", "campaign-record",
            "campaign-csv", "export-dir",
        ],
    )
    def test_bad_output_path_exits_2_with_error(
        self, tmp_path, capsys, argv, option, target
    ):
        # A regular file used as a parent directory cannot be written under.
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert main(argv + [option, str(blocker / target)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--out", "--openmetrics"])
    def test_report_bad_output_path_exits_2_with_error(self, tmp_path, capsys, option):
        assert main(_RUN_ARGV + ["--record-out", str(tmp_path / "rec")]) == 0
        (record,) = (tmp_path / "rec").glob("*.json")
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        capsys.readouterr()
        assert main(["report", str(record), option, str(blocker / "x")]) == 2
        assert "error:" in capsys.readouterr().err
