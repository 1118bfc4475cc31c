"""Parallel campaign execution over a list of scenarios.

A *campaign* runs many scenarios and compares them in one table: the
always-available answer to "does the adaptive model still hold up?" after any
change to the predictor, allocator or simulation substrate.

Scenarios are independent simulations, so the runner fans them out over a
``multiprocessing`` pool.  Determinism is preserved under any worker count:
each scenario's seed is derived from the campaign root seed and the scenario
*name* (not submission order or worker id), every random draw inside a run
comes from that scenario's own named streams, and results are returned in
submission order.  The pool is handed the jobs largest-first (by planned
request count) so no worker idles behind the longest scenario; the outcomes
are put back in submission order before anything reads them.  One raising
scenario does not cost the others: every job runs to completion, and the
failures are then raised together in a :class:`CampaignError` that carries
the successful results.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table, write_csv
from repro.scenarios.pool import execution_context
from repro.scenarios.registry import builtin_specs
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import EXECUTION_MODES, ScenarioSpec
from repro.telemetry import Telemetry
from repro.telemetry.record import RunRecord, build_run_record


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
    crosses the pool boundary unchanged.
    """
    spec, seed, telemetry_enabled = job
    if not (telemetry_enabled or spec.telemetry):
        return run_scenario(spec, seed=seed), None
    telemetry = Telemetry()
    result = run_scenario(spec, seed=seed, telemetry=telemetry)
    return result, build_run_record(spec, result, telemetry)


def _run_job_guarded(
    job: "Tuple[ScenarioSpec, int, bool]",
) -> "Tuple[Optional[Tuple[ScenarioResult, Optional[RunRecord]]], Optional[str]]":
    """:func:`_run_job`, with an exception returned as its traceback text."""
    try:
        return _run_job(job), None
    except Exception:
        return None, traceback.format_exc()


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
            # Longest-processing-time-first list scheduling: a worker that
            # frees up takes the largest job left, so the critical scenario
            # starts at once instead of behind the small ones.  Host time
            # ranks with planned requests; a misjudged job costs balance,
            # never results.  The sort is stable: ties keep submission order.
            order = sorted(
                range(len(jobs)), key=lambda index: -specs[index].workload.target_requests
            )
            context = execution_context()
            with context.Pool(processes=min(workers, len(jobs))) as pool:
                dispatched = pool.map(
                    _run_job_guarded, [jobs[i] for i in order], chunksize=1
                )
            outcomes = [None] * len(jobs)
            for index, outcome in zip(order, dispatched):
                outcomes[index] = outcome
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
