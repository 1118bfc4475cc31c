"""Parallel campaign execution over a list of scenarios.

A *campaign* runs many scenarios and compares them in one table: the
always-available answer to "does the adaptive model still hold up?" after any
change to the predictor, allocator or simulation substrate.

Scenarios are independent simulations, so ``workers = W`` runs W of them at
once in exactly W processes: this one and W - 1 helpers.  A helper is a plain
child interpreter (``python -c`` with this interpreter's flags) linked to this
process by its stdin and stdout: it reads this process's ``sys.path`` and the
job list from stdin, imports this module (with the ``repro`` package) and
whatever the jobs unpickle into, and nothing else (not the caller's
``__main__``, not ``multiprocessing``), so every job payload must pickle by
reference to an importable module.  All
processes take job indices from one shared queue, largest first by planned
request count (ties in submission order): this process takes the largest job
at once, and a helper asks for its first job only once it has booted, so no
process idles behind the longest scenario.  Determinism is preserved under
any worker count: each scenario's seed is derived from the campaign root seed
and the scenario *name* (not submission order or process), every random draw
inside a run comes from that scenario's own named streams, and the outcomes
are put back in submission order before anything reads them.  One raising
scenario does not cost the others: every job runs to completion, and the
failures are then raised together in a :class:`CampaignError` that carries
the successful results.  A helper that dies fails only the scenario it was
running; the jobs still queued run here.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import os
import pickle
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table, write_csv
from repro.scenarios.registry import builtin_specs
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import EXECUTION_MODES, ScenarioSpec
from repro.telemetry import Telemetry
from repro.telemetry.record import RunRecord, build_run_record


#: The program a helper runs: take this process's ``sys.path`` from stdin,
#: keep a duplicate of stdout as the reply stream and point stdout at stderr
#: (a stray ``print`` in a job then cannot corrupt the link), then serve jobs.
_HELPER_BOOT = (
    "import os, pickle, sys\n"
    "sys.path[:] = pickle.load(sys.stdin.buffer)\n"
    "sink = os.fdopen(os.dup(1), 'wb')\n"
    "os.dup2(2, 1)\n"
    "from repro.scenarios.campaign import _helper\n"
    "_helper(sys.stdin.buffer, sink)\n"
)

#: A job's outcome: its (result, record) pair, or ``None`` and the error text.
Outcome = Tuple[Optional[Tuple[ScenarioResult, Optional[RunRecord]]], Optional[str]]


def derive_scenario_seed(root_seed: int, name: str) -> int:
    """A stable per-scenario seed from the campaign seed and scenario name.

    Same construction as ``RandomStreams._child_seed`` so collisions between
    scenario names are as unlikely as between stream names.
    """
    digest = hashlib.sha256(f"{int(root_seed)}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _run_job(
    job: "Tuple[ScenarioSpec, int, bool]",
) -> "Tuple[ScenarioResult, Optional[RunRecord]]":
    """Worker entry point: run one (spec, seed, telemetry) job.

    Returns the result plus, when telemetry was requested, a
    :class:`RunRecord` — both plain picklable dataclasses, so the pair
    crosses the process boundary unchanged.
    """
    spec, seed, telemetry_enabled = job
    if not (telemetry_enabled or spec.telemetry):
        return run_scenario(spec, seed=seed), None
    telemetry = Telemetry()
    result = run_scenario(spec, seed=seed, telemetry=telemetry)
    return result, build_run_record(spec, result, telemetry)


def _run_job_guarded(job: "Tuple[ScenarioSpec, int, bool]") -> Outcome:
    """:func:`_run_job`, with an exception returned as its traceback text."""
    try:
        return _run_job(job), None
    except Exception:
        return None, traceback.format_exc()


def _helper(source, sink) -> None:
    """Helper process entry point: run the jobs this process is handed.

    ``source`` carries the job list, then one job index per message.  The
    first message on ``sink`` (``None``) says it has booted; every later one
    is the ``(index, outcome)`` of the job it was handed last.  It stops when
    it is handed ``None``, and quietly when the parent has gone.
    """
    try:
        jobs = pickle.load(source)
        reply = None
        while True:
            pickle.dump(reply, sink)
            sink.flush()
            index = pickle.load(source)
            if index is None:
                return
            reply = (index, _run_job_guarded(jobs[index]))
    except (EOFError, BrokenPipeError):  # the parent has gone
        pass
    finally:
        # Closed here, a reply the parent can no longer read is dropped
        # instead of being flushed again, noisily, at exit.
        with contextlib.suppress(BrokenPipeError):
            sink.close()


def _start_helper() -> subprocess.Popen:
    """Start one helper interpreter; its stdin and stdout are its link."""
    return subprocess.Popen(
        [sys.executable, *subprocess._args_from_interpreter_flags(), "-c", _HELPER_BOOT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )


def _run_with_helpers(
    jobs: "Sequence[Tuple[ScenarioSpec, int, bool]]",
    order: Sequence[int],
    helpers: int,
) -> List[Outcome]:
    """Run ``jobs`` here and in ``helpers`` helper processes, in ``order``.

    ``order`` fills one queue.  This process takes its first job before any
    helper starts and keeps taking until the queue is empty, while one thread
    per helper hands it the next index whenever it asks.  Whether this
    returns or raises, every helper is stopped and reaped.
    """
    pending = collections.deque(order)

    def take() -> Optional[int]:
        try:
            return pending.popleft()  # atomic: every thread takes from here
        except IndexError:
            return None

    outcomes: List[Optional[Outcome]] = [None] * len(jobs)
    lost: dict = {}
    failed: List[BaseException] = []
    # The empty entry means the working directory: pin it to this one.
    path = [os.getcwd() if entry == "" else entry for entry in sys.path]
    preamble = pickle.dumps(path) + pickle.dumps(jobs)

    def serve(process: subprocess.Popen) -> None:
        """Send ``process`` the preamble, then hand it queued job indices as
        it asks, and store its outcomes.

        The helper holds the only other ends of its pipes, so its exit,
        clean or killed, reads as end of file (a broken pipe, or a truncated
        reply); the job it was handed and did not return then goes to
        ``lost``.
        """
        held = None
        try:
            process.stdin.write(preamble)
            process.stdin.flush()
            while True:
                reply = pickle.load(process.stdout)
                if reply is not None:
                    index, outcome = reply
                    outcomes[index] = outcome
                held = take()
                pickle.dump(held, process.stdin)
                process.stdin.flush()
        except (EOFError, BrokenPipeError, pickle.UnpicklingError):
            if held is not None:
                lost[held] = process
        except BaseException as error:  # raised again in the calling thread
            failed.append(error)

    processes: List[subprocess.Popen] = []
    servers: List[threading.Thread] = []
    index = take()
    try:
        for _ in range(helpers):
            processes.append(_start_helper())
            servers.append(
                threading.Thread(
                    target=serve, args=(processes[-1],), name="campaign-helper"
                )
            )
            servers[-1].start()
        while index is not None:
            outcomes[index] = _run_job_guarded(jobs[index])
            index = take()
        for server in servers:
            server.join()
        if failed:
            raise failed[0]
    except BaseException:
        for process in processes:
            process.terminate()
        raise
    finally:
        for server in servers:
            if server.ident is not None:
                server.join()
        for process in processes:
            process.stdout.close()
            with contextlib.suppress(BrokenPipeError):
                process.stdin.close()  # a helper still waiting for a job stops
            process.wait()
    for index, process in lost.items():
        outcomes[index] = (
            None,
            f"helper process exited with code {process.returncode} "
            "while running this scenario\n",
        )
    return outcomes


@dataclass(frozen=True)
class CampaignResult:
    """The ordered per-scenario results of one campaign.

    ``records`` always aligns index-wise with ``results``: entry ``i`` is
    the :class:`RunRecord` of ``results[i]``, or ``None`` for scenarios that
    ran without telemetry (so positional zips over the two tuples stay
    correct even when only *some* specs set ``spec.telemetry``).  It is
    empty when no scenario collected telemetry at all.
    """

    seed: int
    results: Tuple[ScenarioResult, ...]
    records: Tuple[Optional[RunRecord], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.results)

    def rows(self) -> List[Dict[str, object]]:
        """Cross-scenario comparison rows, in submission order."""
        return [result.as_row() for result in self.results]

    def format_table(self) -> str:
        """The comparison table as aligned plain text."""
        return format_table(self.rows())

    def to_csv(self, path: "str | Path") -> Path:
        """Write the comparison table as CSV; returns the path."""
        return write_csv(self.rows(), path)


class CampaignError(RuntimeError):
    """Some scenarios of a campaign raised; the others' results are kept.

    ``partial`` is the :class:`CampaignResult` of the scenarios that
    succeeded, in submission order; ``failures`` lists ``(scenario name,
    traceback text)`` for each one that raised, also in submission order.
    """

    def __init__(
        self, partial: CampaignResult, failures: Sequence[Tuple[str, str]]
    ) -> None:
        self.partial = partial
        self.failures = tuple(failures)
        names = ", ".join(name for name, _ in self.failures)
        super().__init__(
            f"{len(self.failures)} of {len(partial) + len(self.failures)} "
            f"scenarios failed: {names}"
        )


class CampaignRunner:
    """Executes a list of scenario specs, optionally across processes.

    ``workers`` is how many scenarios run at once, in exactly that many
    processes: this one plus ``workers - 1`` helper interpreters started with
    ``python -c`` and linked by their stdin and stdout, each importing only
    this module (with ``repro``) and what its jobs need, all taking jobs
    largest-first from one shared queue (default: one per scenario, capped at
    the CPU count).
    One worker, or one scenario, runs the list as given in this process.

    ``execution`` overrides every scenario's execution mode for the whole
    campaign (``"batched"`` runs the entire campaign on the vectorised fast
    path); ``None`` keeps each spec's own mode.  ``telemetry=True`` gives
    every worker a live collector and returns one :class:`RunRecord` per
    scenario on the campaign result (the parity contract still holds: the
    comparison table is bit-identical either way).
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        seed: int = 0,
        execution: Optional[str] = None,
        telemetry: bool = False,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if execution is not None and execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
            )
        self.workers = workers
        self.seed = seed
        self.execution = execution
        self.telemetry = telemetry

    def _job_seed(self, spec: ScenarioSpec) -> int:
        """Spec-pinned seeds win; otherwise derive from campaign seed + name."""
        if spec.seed is not None:
            return spec.seed
        return derive_scenario_seed(self.seed, spec.name)

    def run(self, specs: Optional[Sequence[ScenarioSpec]] = None) -> CampaignResult:
        """Run ``specs`` (default: every built-in scenario) and collect results.

        Raises :class:`CampaignError` after every job has finished when any
        scenario raised.
        """
        specs = list(specs) if specs is not None else builtin_specs()
        if not specs:
            raise ValueError("campaign needs at least one scenario")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate scenario names in campaign: {names}")
        if self.execution is not None:
            specs = [spec.with_overrides(execution=self.execution) for spec in specs]
        jobs = [(spec, self._job_seed(spec), self.telemetry) for spec in specs]
        workers = self.workers
        if workers is None:
            workers = min(len(jobs), os.cpu_count() or 1)
        if workers <= 1 or len(jobs) == 1:
            outcomes = [_run_job_guarded(job) for job in jobs]
        else:
            # Longest-processing-time-first list scheduling: a process that
            # frees up takes the largest job left, so the critical scenario
            # starts at once instead of behind the small ones.  Host time
            # ranks with planned requests; a misjudged job costs balance,
            # never results.  The sort is stable: ties keep submission order.
            order = sorted(
                range(len(jobs)), key=lambda index: -specs[index].workload.target_requests
            )
            outcomes = _run_with_helpers(jobs, order, min(workers, len(jobs)) - 1)
        done = [outcome for outcome, _ in outcomes if outcome is not None]
        results = tuple(result for result, _ in done)
        # Keep index-wise alignment with ``results``: scenarios without
        # telemetry contribute a None placeholder, never a shifted tuple.
        records = tuple(record for _, record in done)
        if all(record is None for record in records):
            records = ()
        campaign = CampaignResult(seed=self.seed, results=results, records=records)
        failures = [
            (spec.name, error)
            for spec, (_, error) in zip(specs, outcomes)
            if error is not None
        ]
        if failures:
            raise CampaignError(campaign, failures)
        return campaign
