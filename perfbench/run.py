"""The repo benchmark: host time of the simulator on four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload event-single --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each sample is a fresh interpreter (``sample.py``) that imports ``repro``
from ``src/``, builds the workload's specs, runs them once and checks the
results.  Samples run one at a time, so the load is a closed loop of runs;
inside a run the simulated arrivals follow the plan drawn from the seed.
Samples start until ``--seconds`` have passed, and at least
``MIN_SAMPLES`` run.

``--trace 0`` reports the end-to-end metrics, each the median over the
samples.  ``--trace 1`` alternates untraced and traced samples and reports
the per-layer metrics of the traced ones.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the human-readable tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from sample import EXIT_NO_PROGRAM, SAMPLE_MARK  # noqa: E402

WORKLOADS = ("event-single", "batched-single", "federation-dynamic", "campaign-registry")
CAMPAIGN = "campaign-registry"
MIN_SAMPLES = 4
#: A run starts no sample, and kills the one in flight, once this many
#: seconds have passed, so it ends well inside the 180 s a run may take.
RUN_LIMIT_S = 150.0
RSS_POLL_S = 0.2
CAMPAIGN_METRICS = (
    "campaign.jobs",
    "campaign.job_s",
    "campaign.critical_job_s",
    "campaign.parallel_efficiency",
    "campaign.pool_overhead_s",
)

#: The gated end-to-end metrics, name -> unit, in report order.  Run time is
#: gated in units of the reference computation (``sample.reference_s``),
#: which cancels most of a shared host's speed drift; raw host times are
#: printed beside them (``HOST_TIMES``).
END_TO_END = {
    "wall_ref": "ref",
    "req_per_ref": "req/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
HOST_TIMES = {
    "wall_s": "s",
    "req_per_s": "req/s",
    "ref_s": "s",
}


class NoProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


# ---------------------------------------------------------------------------
# One sample
# ---------------------------------------------------------------------------


def _process_tree_rss(root_pid: int) -> int:
    """Resident bytes of ``root_pid`` and all its descendants right now."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    total = 0
    pending = [root_pid]
    page = os.sysconf("SC_PAGE_SIZE")
    while pending:
        pid = pending.pop()
        pending.extend(parents.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return total


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop a sample and everything it started (pool workers included)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def run_sample(
    workload: str, seed: int, mode: str = "plain", deadline: Optional[float] = None
) -> dict:
    """Start one sample process, wait for it, and return its record.

    The record gains ``setup_s`` (process start to ready-to-run, measured
    on the shared monotonic clock) and ``peak_rss_mb``: the process's own
    peak, or for the campaign, whose pool workers are separate processes,
    the larger of that and the peak of its process tree sampled every
    ``RSS_POLL_S``.  Only the campaign is polled, so the other workloads
    share no core with the poller.
    """
    command = [
        sys.executable,
        str(HERE / "sample.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    spawned_at = time.monotonic()
    if deadline is None:
        deadline = spawned_at + RUN_LIMIT_S
    poll = RSS_POLL_S if workload == CAMPAIGN else RUN_LIMIT_S
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    tree_peak = 0
    try:
        while True:
            if workload == CAMPAIGN:
                tree_peak = max(tree_peak, _process_tree_rss(proc.pid))
            try:
                out, err = proc.communicate(
                    timeout=max(0.0, min(poll, deadline - time.monotonic()))
                )
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() >= deadline:
                    raise
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        return {"errors": [f"sample still running after {RUN_LIMIT_S} s"], "mode": mode}
    except BaseException:
        _kill_group(proc)
        raise
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoProgram(err.strip())
    lines = [line for line in out.splitlines() if line.startswith(SAMPLE_MARK)]
    if proc.returncode != 0 or not lines:
        stderr = err.strip().splitlines()[-5:]
        return {
            "errors": [f"sample exited {proc.returncode}: " + " | ".join(stderr)],
            "mode": mode,
        }
    record = json.loads(lines[-1][len(SAMPLE_MARK):])
    record["setup_s"] = record["ready_at"] - spawned_at
    record["peak_rss_mb"] = max(tree_peak, 1024 * record["rss_self_kb"]) / 2**20
    if "ref_s" in record:
        record["req_per_s"] = record["requests"] / record["wall_s"]
        record["wall_ref"] = record["wall_s"] / record["ref_s"]
        record["req_per_ref"] = record["requests"] / record["wall_ref"]
    return record


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def regression_flagged(base: Sequence[float], cand: Sequence[float]) -> bool:
    """Whether paired samples show ``cand`` slower than ``base``.

    ``base[i]`` and ``cand[i]`` are one pair, run back to back.  A
    regression is flagged when the candidate is slower in at least nine
    tenths of the pairs (ties count for neither side) and its median exceeds
    the base median by more than the base's own interquartile range.
    """
    pairs = list(zip(base, cand))
    slower = sum(1 for b, c in pairs if c > b)
    return bool(pairs) and slower >= 0.9 * len(pairs) and (
        median(cand) - median(base) > iqr(base)
    )


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checkout's commit read from ``.git`` directly; ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def host_info() -> Dict[str, object]:
    """What a result must be stamped with so runs on different hosts never
    get compared silently."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _collect(workload: str, seed: int, seconds: float, modes: Sequence[str]) -> List[dict]:
    """Rounds of one sample per mode until ``seconds`` have passed.

    A plain run takes at least ``MIN_SAMPLES`` samples, a traced run at
    least one round.
    """
    records: List[dict] = []
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    rounds = 0
    while rounds == 0 or (
        time.monotonic() - started < seconds
        or (len(modes) == 1 and rounds < MIN_SAMPLES)
    ):
        for mode in modes:
            if time.monotonic() >= deadline:
                return records
            records.append(run_sample(workload, seed, mode, deadline))
        rounds += 1
    return records


def _check(records: Sequence[dict]) -> "tuple[int, List[str]]":
    """Failed samples and every reason: a sample fails when it raised, failed
    an output check, or gave a result other than the run's first sample."""
    first = next((r["digest"] for r in records if "digest" in r), None)
    failed = sum(1 for r in records if r.get("errors") or r.get("digest") != first)
    problems = [error for record in records for error in record.get("errors", ())]
    digests = {record["digest"] for record in records if "digest" in record}
    if len(digests) > 1:
        problems.append(f"samples of one seed gave different results: {sorted(digests)}")
    return failed, problems


def _print_errors(problems: Sequence[str]) -> None:
    for problem in problems:
        print(f"  FAILED: {problem.strip()}")


def measure(workload: str, seed: int, seconds: float) -> dict:
    """``--trace 0``: the end-to-end metrics of one workload."""
    records = _collect(workload, seed, seconds, ("plain",))
    good = [record for record in records if not record.get("errors")]
    failed, problems = _check(records)
    print(f"== {workload} (seed {seed}, {len(records)} samples)")
    print(f"  {'metric':<14}{'unit':<8}{'median':>14}{'iqr':>12}{'n':>4}")
    metrics = {}
    for name, unit in {**END_TO_END, **HOST_TIMES}.items():
        values = [record[name] for record in good]
        if name in END_TO_END:
            metrics[name] = {"value": median(values), "unit": unit}
        print(f"  {name:<14}{unit:<8}{median(values):>14.6g}{iqr(values):>12.4g}{len(values):>4}")
    error_rate = failed / len(records)
    print(f"  {'error_rate':<14}{'fraction':<8}{error_rate:>14.6g}{'':>12}{len(records):>4}")
    _print_errors(problems)
    return {
        "attempted": len(records),
        "failed": failed,
        "correct": not failed,
        "metrics": metrics,
    }


def _campaign_metrics(plain: Sequence[dict], runner: Sequence[dict]) -> Dict[str, float]:
    """Campaign-layer metrics: per-job times from the in-process runner-only
    pass, wall time from the pooled run."""
    jobs = [record["job_s"] for record in runner if "job_s" in record]
    walls = [record["wall_s"] for record in plain if not record.get("errors")]
    if not jobs or not walls:
        return {}
    job_s = median([sum(times) for times in jobs])
    critical = median([max(times) for times in jobs])
    wall = median(walls)
    workers = os.cpu_count() or 1
    return {
        "campaign.jobs": float(len(jobs[0])),
        "campaign.job_s": job_s,
        "campaign.critical_job_s": critical,
        "campaign.parallel_efficiency": job_s / (workers * wall),
        "campaign.pool_overhead_s": wall - max(critical, job_s / workers),
    }


def trace(workload: str, seed: int, seconds: float) -> dict:
    """``--trace 1``: the per-layer metrics of one workload."""
    campaign = workload == CAMPAIGN
    modes = ("plain", "runner", "traced") if campaign else ("plain", "traced")
    records = _collect(workload, seed, seconds, modes)
    by_mode = {mode: [r for r in records if r.get("mode") == mode] for mode in modes}
    traced = [r for r in by_mode["traced"] if "layers" in r]
    failed, problems = _check(records)
    for record in traced:
        problems += record["coverage_errors"]

    # Every name is reported even when no traced sample succeeded.
    metrics = {
        name: median([r["layers"][name] for r in traced])
        for name in tracing.layer_metrics(tracing.Tracer(), [])
    }
    metrics.update(dict.fromkeys(CAMPAIGN_METRICS, 0.0))
    if campaign:
        metrics.update(_campaign_metrics(by_mode["plain"], by_mode["runner"]))
    done = [r for r in records if "import_s" in r]
    metrics["setup.import_s"] = median([r["import_s"] for r in done])
    metrics["setup.spec_s"] = median([r["spec_s"] for r in done])
    reference = by_mode["runner"] if campaign else by_mode["plain"]
    untraced_wall = median([r["wall_ref"] for r in reference if "wall_ref" in r])
    traced_wall = median([r["wall_ref"] for r in traced])
    metrics["trace.overhead_frac"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall and traced_wall else 0.0
    )

    print(f"== {workload} traced (seed {seed}, {len(traced)} traced of {len(records)} samples)")
    print(f"  wall_ref traced {traced_wall:.4f}, untraced {untraced_wall:.4f}, "
          f"overhead {metrics['trace.overhead_frac']:+.3f}")
    print(f"  {'layer':<12}{'share of traced wall_s':>24}")
    shares = {
        layer: median([r["shares"][layer] for r in traced]) for layer in tracing.LAYERS
    } if traced else {}
    for layer, share in shares.items():
        print(f"  {layer:<12}{share:>24.3f}")
    predicted = tracing.PREDICTED_SHARES.get(workload, {})
    if predicted:
        print(f"  {'predicted group':<34}{'measured':>10}{'predicted':>10}")
        for group, share in predicted.items():
            measured = sum(shares.get(layer, 0.0) for layer in group.split("+"))
            print(f"  {group:<34}{measured:>10.3f}{share:>10.3f}")
    absent = sorted({name for r in traced for name in r.get("absent", ())})
    if absent:
        print(f"  entry points missing from the program: {', '.join(absent)}")
    _print_errors(problems)
    return {
        "attempted": len(records),
        "failed": failed,
        "correct": not failed and not problems,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def unit_of(name: str) -> str:
    """The unit a per-layer metric is reported in, read from its name."""
    if name.endswith("req_per_s"):
        return "req/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name == "engine.us_per_event":
        return "us"
    if name == "engine.events_per_req":
        return "events/req"
    if name.endswith(("_ratio", "_frac", "efficiency")):
        return "fraction"
    return "count"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A terminating signal unwinds like an exception, so the sample in
    # flight and its pool workers are stopped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print("host: " + json.dumps(host_info(), sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    try:
        for workload in workloads:
            run = trace if args.trace else measure
            outcomes[workload] = run(workload, args.seed, args.seconds)
    except NoProgram as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    correct = all(o["correct"] for o in outcomes.values())
    if len(workloads) == 1:
        metrics = outcomes[workloads[0]]["metrics"]
    else:
        metrics = {
            f"{workload}.{name}": value
            for workload, outcome in outcomes.items()
            for name, value in outcome["metrics"].items()
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
