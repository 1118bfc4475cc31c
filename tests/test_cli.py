"""Tests for the repro-accel command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_every_figure_subcommand_exists(self):
        parser = build_parser()
        for command in ("fig4", "fig5", "fig6", "fig7", "fig8a", "fig8", "fig10a", "fig11", "dynamic"):
            args = parser.parse_args([command])
            assert args.command == command
            assert args.seed == 0

    def test_seed_option(self):
        args = build_parser().parse_args(["fig5", "--seed", "7"])
        assert args.seed == 7

    def test_dynamic_options(self):
        args = build_parser().parse_args(["dynamic", "--users", "10", "--hours", "0.5", "--requests", "100"])
        assert args.users == 10
        assert args.hours == 0.5
        assert args.requests == 100

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestVersionAndErrors:
    def test_version_flag_prints_version_and_exits_zero(self, capsys):
        from repro import __version__

        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_figure_returns_nonzero(self, capsys):
        assert main(["fig99"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_command_returns_nonzero(self):
        assert main([]) == 2


class TestExecution:
    def test_fig5_prints_ratios(self, capsys):
        assert main(["fig5", "--samples", "40"]) == 0
        output = capsys.readouterr().out
        assert "speedup" in output

    def test_fig11_prints_operator_rows(self, capsys):
        assert main(["fig11"]) == 0
        output = capsys.readouterr().out
        assert "alpha/3G" in output

    def test_fig8a_prints_overhead(self, capsys):
        assert main(["fig8a"]) == 0
        assert "overall_mean_routing_ms" in capsys.readouterr().out

    def test_dynamic_small_run(self, capsys):
        assert main(["dynamic", "--users", "10", "--hours", "0.25", "--requests", "60"]) == 0
        output = capsys.readouterr().out
        assert "success_rate_pct" in output
        assert "stable user" in output

    @pytest.mark.parametrize(
        "options",
        [
            ["--users", "0"],
            ["--hours", "0"],
            ["--users", "10", "--requests", "5"],
        ],
        ids=["no-users", "no-hours", "requests-below-users"],
    )
    def test_dynamic_bad_input_exits_2_without_traceback(self, capsys, options):
        assert main(["dynamic", *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--samples", "0"],
            ["fig5", "--samples", "0"],
            ["fig6", "--samples", "-1"],
            ["summary", "--samples", "0"],
            ["export", "--samples", "-5"],
            ["fig8", "--step-seconds", "0"],
            ["fig8", "--step-seconds", "-1"],
            ["fig8", "--step-seconds", "nan"],
            ["fig8", "--step-seconds", "inf"],
            ["diff", "a.json", "b.json", "--max-counter-delta-pct", "nan"],
            ["diff", "a.json", "b.json", "--max-counter-delta-pct", "-1"],
            ["diff", "a.json", "b.json", "--max-series-divergence", "nan"],
            ["diff", "a.json", "b.json", "--max-series-divergence", "-0.5"],
            ["diff", "a.json", "b.json", "--limit", "-1"],
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_bad_sample_count_or_step_exits_2_at_parse_time(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {argv[-2]}: must be a " in err
        assert "Traceback" not in err

    def test_export_writes_csv_files(self, tmp_path, capsys):
        assert main(["export", "--output-dir", str(tmp_path), "--samples", "40"]) == 0
        written = sorted(path.name for path in tmp_path.glob("*.csv"))
        assert "fig5_acceleration_ratios.csv" in written
        assert "fig11_network_latency.csv" in written
        assert len(written) == 7
        # progress messages go through the repro logger onto stderr now
        assert "exported 7 figure datasets" in capsys.readouterr().err
