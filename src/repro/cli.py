"""Command-line interface.

``repro-accel`` regenerates any of the paper's evaluation figures from the
command line and prints the resulting rows as a plain table, e.g.::

    repro-accel fig5                 # acceleration ratios (Fig. 5)
    repro-accel fig10a --seed 3      # prediction accuracy (Fig. 10a)
    repro-accel dynamic --hours 2    # the Fig. 9/10 system experiment
    repro-accel export --output-dir results/   # CSVs for every fast figure

Beyond the paper's figures, the scenario engine runs declarative workloads::

    repro-accel scenario list                  # the built-in scenario registry
    repro-accel scenario run flash-crowd       # one scenario end to end
    repro-accel scenario run edge-vs-core      # multi-site: adds a per-site table
    repro-accel scenario campaign --workers 4  # all scenarios, in parallel
    repro-accel scenario campaign --execution batched   # whole campaign, fast path

Every experiment accepts ``--seed`` so runs are reproducible.  Unknown
commands exit with a nonzero status.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Sequence

from repro import __version__
from repro.analysis.metrics import group_rollup_rows, routing_share_rows
from repro.analysis.reporting import format_table, write_csv
from repro.experiments import (
    build_reproduction_summary,
    run_dynamic_acceleration,
    run_fig4_characterization,
    run_fig5_acceleration_ratios,
    run_fig6_nano_micro_anomaly,
    run_fig7_decomposition,
    run_fig8_saturation,
    run_fig8a_sdn_overhead,
    run_fig10a_prediction_accuracy,
    run_fig11_network_latency,
)
from repro.multisite.spec import BROKER_POLICIES
from repro.scenarios import (
    CampaignError,
    CampaignRunner,
    builtin_specs,
    get_scenario,
    run_scenario,
)
from repro.telemetry import (
    Telemetry,
    build_run_record,
    diff_records,
    load_run_record,
    record_filename,
    render_report,
)
from repro.telemetry.publish import to_openmetrics

#: Progress / bookkeeping messages ("wrote <path>") go through
#: this logger onto stderr, gated by ``--verbose``/``--quiet`` — result tables
#: and JSON payloads stay on stdout, so piping output never mixes the two.
log = logging.getLogger("repro")


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """(Re)bind the CLI logger to the *current* stderr at the chosen level.

    A fresh handler per invocation keeps ``main()`` re-entrant: embedding
    callers (and pytest's capsys) may swap ``sys.stderr`` between calls, and
    a cached handler would keep writing to the old stream.
    """
    for handler in list(log.handlers):
        log.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.addHandler(handler)
    log.propagate = False
    if quiet:
        log.setLevel(logging.WARNING)
    elif verbose:
        log.setLevel(logging.DEBUG)
    else:
        log.setLevel(logging.INFO)


def _invalid_broker(broker: "str | None") -> bool:
    """Report (on stderr) whether ``broker`` names an unknown policy."""
    if broker is None or broker in BROKER_POLICIES:
        return False
    print(
        f"error: unknown broker policy {broker!r}; choose from "
        f"{', '.join(BROKER_POLICIES)}",
        file=sys.stderr,
    )
    return True


def _jsonify(value: object) -> object:
    """Make a result payload strict-JSON safe: NaN/inf metrics become null.

    ``json.dumps`` would otherwise emit the non-standard ``NaN`` token for
    metrics like a no-success site's mean response time, which strict
    parsers (jq, JavaScript ``JSON.parse``) reject.
    """
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return None
    return value


def _print_rows(rows: Iterable[Dict[str, object]]) -> None:
    """Print a list of dict rows as aligned ``key=value`` lines."""
    for row in rows:
        line = "  ".join(f"{key}={value}" for key, value in row.items())
        print(line)


def _cmd_fig4(args: argparse.Namespace) -> int:
    result = run_fig4_characterization(seed=args.seed, samples_per_level=args.samples)
    _print_rows(result.rows())
    print("acceleration level map:", result.level_map())
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    result = run_fig5_acceleration_ratios(seed=args.seed, samples_per_level=args.samples)
    _print_rows(result.rows())
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    result = run_fig6_nano_micro_anomaly(seed=args.seed, samples_per_level=args.samples)
    _print_rows(result.rows())
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    result = run_fig7_decomposition(seed=args.seed)
    _print_rows(result.rows())
    return 0


def _cmd_fig8a(args: argparse.Namespace) -> int:
    result = run_fig8a_sdn_overhead(seed=args.seed)
    _print_rows(result.rows())
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    result = run_fig8_saturation(seed=args.seed, step_duration_s=args.step_seconds)
    _print_rows(result.rows())
    return 0


def _cmd_fig10a(args: argparse.Namespace) -> int:
    result = run_fig10a_prediction_accuracy(seed=args.seed)
    _print_rows(result.rows())
    return 0


def _cmd_fig11(args: argparse.Namespace) -> int:
    result = run_fig11_network_latency(seed=args.seed)
    _print_rows(result.rows())
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    """Print the paper-vs-measured comparison for every headline number."""
    rows = build_reproduction_summary(seed=args.seed, samples_per_level=args.samples)
    print(format_table(rows))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Run every fast figure experiment and write its rows to CSV files."""
    output_dir = Path(args.output_dir)
    experiments = {
        "fig4_characterization": lambda: run_fig4_characterization(seed=args.seed, samples_per_level=args.samples).rows(),
        "fig5_acceleration_ratios": lambda: run_fig5_acceleration_ratios(seed=args.seed, samples_per_level=args.samples).rows(),
        "fig7_decomposition": lambda: run_fig7_decomposition(seed=args.seed).rows(),
        "fig8a_sdn_overhead": lambda: run_fig8a_sdn_overhead(seed=args.seed).rows(),
        "fig8_saturation": lambda: run_fig8_saturation(seed=args.seed).rows(),
        "fig10a_prediction_accuracy": lambda: run_fig10a_prediction_accuracy(seed=args.seed).rows(),
        "fig11_network_latency": lambda: run_fig11_network_latency(seed=args.seed).rows(),
    }
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    written = []
    for name, runner in experiments.items():
        path = write_csv(runner(), output_dir / f"{name}.csv")
        written.append(path)
        log.info("wrote %s", path)
    log.info("exported %d figure datasets to %s", len(written), output_dir)
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    try:
        result = run_dynamic_acceleration(
            seed=args.seed,
            users=args.users,
            duration_hours=args.hours,
            target_requests=args.requests,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_rows(result.rows())
    stable = result.stable_user()
    print(f"stable user (Fig. 9b analogue): user {stable}")
    try:
        promoted = result.fully_promoted_user()
        print(f"fully promoted user (Fig. 9c analogue): user {promoted}")
    except ValueError:
        print("no user reached the highest group in this run")
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    """Print the scenario registry as a table."""
    rows = [
        {
            "scenario": spec.name,
            "users": spec.users,
            "hours": spec.duration_hours,
            "slot_min": spec.slot_minutes,
            "pattern": spec.workload.pattern,
            "network": spec.network.profile,
            "sites": (
                f"{len(spec.sites)}:{spec.sites.policy}" if spec.sites else "-"
            ),
            "description": spec.description,
        }
        for spec in builtin_specs()
    ]
    print(format_table(rows))
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    """Run one named scenario and print its metric row (or JSON).

    An output path that cannot be written exits 2 with an ``error:`` line.
    """
    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        print(str(error.args[0]), file=sys.stderr)
        return 2
    if _invalid_broker(args.broker):
        return 2
    wants_artifacts = bool(args.record_out or args.metrics_out)
    try:
        spec = spec.with_overrides(
            users=args.users,
            duration_hours=args.hours,
            target_requests=args.requests,
            execution=args.execution,
            broker=args.broker,
            capacity_signal=args.capacity_signal,
            telemetry=args.telemetry or bool(args.trace_out) or wants_artifacts or None,
        )
        if args.without_resilience:
            if spec.faults is None:
                print(
                    f"error: scenario {spec.name!r} has no fault plane; "
                    "--without-resilience needs one",
                    file=sys.stderr,
                )
                return 2
            spec = dataclasses.replace(
                spec, faults=spec.faults.without_resilience()
            )
        # Build the collector here (rather than letting the runner resolve
        # the spec knob) so the CLI can read it back for the summary/exports.
        telemetry = Telemetry() if spec.telemetry else None
        result = run_scenario(spec, seed=args.seed, telemetry=telemetry)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if args.record_out and telemetry is not None:
            record = build_run_record(spec, result, telemetry)
            record_path = record.save(
                Path(args.record_out) / record_filename(record)
            )
            log.info("wrote run record %s", record_path)
        if args.metrics_out and telemetry is not None:
            metrics_path = Path(args.metrics_out)
            metrics_path.parent.mkdir(parents=True, exist_ok=True)
            metrics_path.write_text(
                json.dumps(_jsonify(telemetry.as_dict()), indent=2) + "\n"
            )
            log.info("wrote telemetry metrics %s", metrics_path)
        if args.trace_out and telemetry is not None:
            trace_path = Path(args.trace_out)
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(
                json.dumps(telemetry.tracer.to_chrome_trace(), indent=2)
            )
            log.info("wrote Chrome trace %s", trace_path)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        payload = _jsonify(dataclasses.asdict(result))
        if telemetry is not None:
            payload["telemetry"] = _jsonify(telemetry.as_dict())
        print(json.dumps(payload, indent=2))
        return 0
    print(format_table(result.rows()))
    if telemetry is not None:
        print()
        print(format_table(telemetry.tracer.phase_rows()))
        for line in telemetry.summary_lines():
            print(line)
        print()
        print(format_table(telemetry.registry.rows()))
    if result.is_multisite:
        print()
        print(format_table(result.site_rows()))
        group_rows = group_rollup_rows(result.sites)
        if group_rows:
            print()
            print(format_table(group_rows))
        if result.slot_site_requests:
            print()
            print(format_table(routing_share_rows(
                result.slot_site_requests,
                [site.name for site in result.sites],
            )))
        if result.requests_unrouted:
            print(f"unrouted requests (no site available): {result.requests_unrouted}")
        if result.requests_spilled:
            print(f"requests spilled across sites: {result.requests_spilled}")
    return 0


def _cmd_scenario_campaign(args: argparse.Namespace) -> int:
    """Run many scenarios across workers and print the comparison table.

    When some scenarios raise, the others' rows are still printed (and
    written), each failure's traceback goes to stderr, and the exit code is 1.
    An output path that cannot be written exits 2 with an ``error:`` line.
    """
    if args.only:
        try:
            specs = [get_scenario(name.strip()) for name in args.only.split(",")]
        except KeyError as error:
            print(str(error.args[0]), file=sys.stderr)
            return 2
    else:
        specs = builtin_specs()
    if _invalid_broker(args.broker):
        return 2
    try:
        if args.broker:
            specs = [spec.with_overrides(broker=args.broker) for spec in specs]
        runner = CampaignRunner(
            workers=args.workers,
            seed=args.seed,
            execution=args.execution,
            telemetry=args.telemetry or bool(args.record_out),
        )
        failed: Optional[CampaignError] = None
        try:
            campaign = runner.run(specs)
        except CampaignError as error:
            failed, campaign = error, error.partial
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(campaign.format_table())
    try:
        if args.csv:
            path = campaign.to_csv(args.csv)
            log.info("wrote %s", path)
        if args.record_out and campaign.records:
            out_dir = Path(args.record_out)
            entries = []
            for record in campaign.records:
                if record is None:
                    # Records align index-wise with results; scenarios that ran
                    # without live telemetry hold a None placeholder.
                    continue
                record_path = record.save(out_dir / record_filename(record))
                entries.append(
                    {
                        "scenario": record.scenario,
                        "execution": record.execution,
                        "seed": record.seed,
                        "spec_hash": record.spec_hash,
                        "file": record_path.name,
                    }
                )
                log.info("wrote run record %s", record_path)
            manifest_path = out_dir / "manifest.json"
            manifest_path.write_text(
                json.dumps(
                    {
                        "schema": "repro.campaign-manifest/1",
                        "campaign_seed": campaign.seed,
                        "records": entries,
                    },
                    indent=2,
                )
                + "\n"
            )
            log.info("wrote campaign manifest %s", manifest_path)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if failed is not None:
        for name, trace in failed.failures:
            print(f"scenario {name} failed:\n{trace}", file=sys.stderr)
        print(f"error: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a run record as a self-contained HTML dashboard + OpenMetrics."""
    try:
        record = load_run_record(args.record)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    record_path = Path(args.record)
    html_path = Path(args.out) if args.out else record_path.with_suffix(".html")
    om_path = (
        Path(args.openmetrics)
        if args.openmetrics
        else record_path.with_suffix(".om")
    )
    try:
        html_path.parent.mkdir(parents=True, exist_ok=True)
        html_path.write_text(render_report(record), encoding="utf-8")
        log.info("wrote HTML report %s", html_path)
        om_path.parent.mkdir(parents=True, exist_ok=True)
        om_path.write_text(
            to_openmetrics(
                {
                    "counters": record.counters,
                    "gauges": record.gauges,
                    "histograms": record.histograms,
                }
            ),
            encoding="utf-8",
        )
        log.info("wrote OpenMetrics export %s", om_path)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"report: {html_path}")
    print(f"openmetrics: {om_path}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """Diff two run records; nonzero exit on a regression verdict."""
    try:
        record_a = load_run_record(args.record_a)
        record_b = load_run_record(args.record_b)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    diff = diff_records(
        record_a,
        record_b,
        max_counter_delta_pct=args.max_counter_delta_pct,
        max_series_divergence=args.max_series_divergence,
    )
    if args.json:
        print(json.dumps(_jsonify(diff.as_dict()), indent=2))
    else:
        for line in diff.summary_lines(limit=args.limit):
            print(line)
    return 1 if diff.verdict == "regression" else 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-accel`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-accel",
        description="Regenerate the evaluation figures of 'Modeling Mobile Code "
        "Acceleration in the Cloud' (ICDCS 2017).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose", action="store_true",
        help="also show debug-level progress messages (stderr)",
    )
    verbosity.add_argument(
        "--quiet", action="store_true",
        help="suppress informational progress messages (stderr)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable[[argparse.Namespace], int], help_text: str):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--seed", type=int, default=0, help="root random seed")
        sub.set_defaults(handler=handler)
        return sub

    for name, handler, help_text in [
        ("fig4", _cmd_fig4, "instance characterization curves (Fig. 4)"),
        ("fig5", _cmd_fig5, "acceleration-level ratios (Fig. 5)"),
        ("fig6", _cmd_fig6, "t2.nano vs t2.micro anomaly (Fig. 6)"),
        ("fig7", _cmd_fig7, "response-time decomposition (Fig. 7a/7b)"),
        ("fig8a", _cmd_fig8a, "SDN routing overhead (Fig. 8a)"),
        ("fig8", _cmd_fig8, "saturation under doubling arrival rate (Fig. 8b/8c)"),
        ("fig10a", _cmd_fig10a, "prediction accuracy (Fig. 10a)"),
        ("fig11", _cmd_fig11, "3G/LTE latency per operator (Fig. 11)"),
        ("dynamic", _cmd_dynamic, "dynamic acceleration experiment (Fig. 9, 10b, 10c)"),
        ("export", _cmd_export, "write CSV datasets for every fast figure"),
        ("summary", _cmd_summary, "paper-vs-measured comparison of every headline number"),
    ]:
        sub = add(name, handler, help_text)
        if name in ("fig4", "fig5", "fig6", "export", "summary"):
            sub.add_argument(
                "--samples", type=_positive_int, default=200, help="samples per concurrency level"
            )
        if name == "fig8":
            sub.add_argument(
                "--step-seconds", type=_positive_float, default=10.0,
                help="seconds per arrival rate step",
            )
        if name == "dynamic":
            sub.add_argument("--users", type=int, default=100, help="number of mobile users")
            sub.add_argument("--hours", type=float, default=2.0, help="experiment duration in hours")
            sub.add_argument("--requests", type=int, default=1000, help="approximate total requests")
        if name == "export":
            sub.add_argument("--output-dir", default="results", help="directory for the CSV files")

    scenario = subparsers.add_parser(
        "scenario", help="declarative scenario engine (list | run | campaign)"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_list = scenario_sub.add_parser("list", help="show the scenario registry")
    scenario_list.set_defaults(handler=_cmd_scenario_list)

    scenario_run = scenario_sub.add_parser("run", help="run one scenario end to end")
    scenario_run.add_argument("name", help="registered scenario name")
    scenario_run.add_argument(
        "--seed", type=int, default=None,
        help="root random seed (default: the spec's pinned seed, else 0)",
    )
    scenario_run.add_argument("--users", type=int, default=None, help="override user count")
    scenario_run.add_argument("--hours", type=float, default=None, help="override duration")
    scenario_run.add_argument(
        "--requests", type=int, default=None, help="override target request count"
    )
    scenario_run.add_argument(
        "--execution", default=None, choices=("event", "batched"),
        help="execution mode (batched = vectorised fast path)",
    )
    scenario_run.add_argument(
        "--broker", default=None,
        help="override the federation broker policy (multi-site scenarios "
        "only; e.g. dynamic-load)",
    )
    scenario_run.add_argument(
        "--capacity-signal", default=None, choices=("per-group", "fleet"),
        dest="capacity_signal",
        help="override the dynamic broker's live-state resolution "
        "(multi-site scenarios only; fleet = legacy scalar signal)",
    )
    scenario_run.add_argument(
        "--json", action="store_true",
        help="print the full result as JSON (per-site and per-group rows, "
        "spillover and per-slot routing fields included)",
    )
    scenario_run.add_argument(
        "--telemetry", action="store_true",
        help="collect metrics and slot-phase spans; prints a phase/metric "
        "summary (or embeds a 'telemetry' key under --json)",
    )
    scenario_run.add_argument(
        "--trace-out", default="", dest="trace_out", metavar="PATH",
        help="write the run's span timeline as a Chrome-trace JSON file "
        "(implies --telemetry; open via chrome://tracing or ui.perfetto.dev)",
    )
    scenario_run.add_argument(
        "--record-out", default="", dest="record_out", metavar="DIR",
        help="write a versioned run-record JSON artifact (slot series, "
        "counters, span rows) into DIR (implies --telemetry; feed the file "
        "to 'repro-accel report' or 'repro-accel diff')",
    )
    scenario_run.add_argument(
        "--metrics-out", default="", dest="metrics_out", metavar="PATH",
        help="write the telemetry payload (metrics + trace) as JSON to PATH "
        "(implies --telemetry)",
    )
    scenario_run.add_argument(
        "--without-resilience", action="store_true", dest="without_resilience",
        help="strip the scenario's retry/failover/local-fallback policy "
        "(fault-plane scenarios only) — the control arm of the resilience "
        "A/B twin",
    )
    scenario_run.set_defaults(handler=_cmd_scenario_run)

    scenario_campaign = scenario_sub.add_parser(
        "campaign", help="run many scenarios in parallel and compare them"
    )
    scenario_campaign.add_argument("--seed", type=int, default=0, help="campaign root seed")
    scenario_campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        help="scenarios run at once: this process plus N-1 helpers "
        "(default: one per scenario, capped at CPU count)",
    )
    scenario_campaign.add_argument(
        "--only", default="", help="comma-separated subset of scenario names"
    )
    scenario_campaign.add_argument(
        "--execution", default=None, choices=("event", "batched"),
        help="override every scenario's execution mode "
        "(batched = whole campaign on the vectorised fast path)",
    )
    scenario_campaign.add_argument(
        "--broker", default=None,
        help="override every selected scenario's federation broker policy "
        "(all selected scenarios must be multi-site)",
    )
    scenario_campaign.add_argument(
        "--csv", default="", help="also write the comparison table to this CSV path"
    )
    scenario_campaign.add_argument(
        "--telemetry", action="store_true",
        help="collect metrics and slot series in every worker (the "
        "comparison table stays bit-identical)",
    )
    scenario_campaign.add_argument(
        "--record-out", default="", dest="record_out", metavar="DIR",
        help="write one run-record JSON per scenario plus a manifest.json "
        "into DIR (implies --telemetry)",
    )
    scenario_campaign.set_defaults(handler=_cmd_scenario_campaign)

    report = subparsers.add_parser(
        "report",
        help="render a run-record file as a self-contained HTML dashboard "
        "plus an OpenMetrics text export",
    )
    report.add_argument("record", help="run-record JSON (from --record-out)")
    report.add_argument(
        "--out", default="", metavar="PATH",
        help="HTML output path (default: the record path with .html)",
    )
    report.add_argument(
        "--openmetrics", default="", metavar="PATH",
        help="OpenMetrics output path (default: the record path with .om)",
    )
    report.set_defaults(handler=_cmd_report)

    diff = subparsers.add_parser(
        "diff",
        help="compare two run records (counters by name, series by slot) "
        "and print a regression verdict",
    )
    diff.add_argument("record_a", help="baseline run-record JSON")
    diff.add_argument("record_b", help="candidate run-record JSON")
    diff.add_argument(
        "--json", action="store_true", help="print the full diff as JSON"
    )
    diff.add_argument(
        "--max-counter-delta-pct", type=_non_negative_float, default=0.0,
        dest="max_counter_delta_pct", metavar="PCT",
        help="largest acceptable relative counter change in percent "
        "(default 0: any change is a regression)",
    )
    diff.add_argument(
        "--max-series-divergence", type=_non_negative_float, default=0.0,
        dest="max_series_divergence", metavar="VALUE",
        help="largest acceptable per-slot absolute series divergence "
        "(default 0: any divergence is a regression)",
    )
    diff.add_argument(
        "--limit", type=_non_negative_int, default=12,
        help="rows to print per section in the text summary",
    )
    diff.set_defaults(handler=_cmd_diff)

    return parser


def _positive_int(text: str) -> int:
    """``argparse`` type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    """``argparse`` type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    """``argparse`` type: a number of at least 0 (not NaN)."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text}")
    return value


def _positive_float(text: str) -> float:
    """``argparse`` type: a finite number above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-accel`` console script.

    Returns a process exit code rather than letting ``argparse`` terminate
    the interpreter: unknown commands yield 2, ``--version`` yields 0, so
    embedding callers (and tests) observe a plain integer either way.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    _configure_logging(args.verbose, args.quiet)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
