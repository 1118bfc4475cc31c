"""Queueing primitive used by the cloud-instance server model.

:class:`ProcessorSharingServer` is an egalitarian processor-sharing service
model.  All admitted jobs share the server's total service rate equally, which
reproduces the characteristic response-time growth with concurrency of Fig. 4:
doubling the number of concurrent users roughly doubles the response time once
the server's parallelism is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional


class ServerBusyError(RuntimeError):
    """Raised when a job is submitted to a server that cannot admit it."""


@dataclass
class _Job:
    job_id: int
    remaining_work: float
    submitted_at_ms: float
    on_complete: Callable[[float], None]


class ProcessorSharingServer:
    """An egalitarian processor-sharing server driven by a simulation engine.

    The server has a total service rate expressed in *work units per
    millisecond* and a parallelism width.  While the number of in-service jobs
    is at most the parallelism width each job receives the full per-core rate;
    beyond that, the total rate is shared equally among all in-service jobs.

    Completion times are recomputed whenever the job population changes.
    Rescheduling is *lazy*: the pending next-completion event is only
    replaced when the new next completion moves **earlier** than the
    scheduled time.  When it moves later (the common case — every arrival
    beyond the parallelism width slows the jobs in service), the existing
    event is kept; on firing, the handler notices nothing has finished yet
    and re-arms itself at the corrected time.  This trades one guaranteed
    cancel+push per arrival for at most one extra no-op pop per population
    change, which cuts the event-path heap churn substantially while
    preserving the exact processor-sharing trajectory under
    piecewise-constant sharing.
    """

    def __init__(
        self,
        engine,
        *,
        service_rate_per_core: float,
        cores: int,
        max_concurrency: Optional[int] = None,
        name: str = "server",
    ) -> None:
        if service_rate_per_core <= 0:
            raise ValueError(f"service rate must be positive, got {service_rate_per_core}")
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self._engine = engine
        self._rate_per_core = float(service_rate_per_core)
        self._cores = int(cores)
        self._max_concurrency = max_concurrency
        self.name = name
        self._jobs: Dict[int, _Job] = {}
        self._next_job_id = 0
        self._last_update_ms = engine.now_ms
        self._completion_event = None
        self.completed_jobs = 0
        self.rejected_jobs = 0
        self.busy_time_ms = 0.0

    @property
    def in_service(self) -> int:
        """Number of jobs currently being served."""
        return len(self._jobs)

    @property
    def cores(self) -> int:
        return self._cores

    @property
    def max_concurrency(self) -> Optional[int]:
        return self._max_concurrency

    def per_job_rate(self, population: Optional[int] = None) -> float:
        """Service rate each job receives for a given population size."""
        population = self.in_service if population is None else population
        if population <= 0:
            return self._rate_per_core
        if population <= self._cores:
            return self._rate_per_core
        return self._rate_per_core * self._cores / population

    def submit(self, work_units: float, on_complete: Callable[[float], None]) -> int:
        """Submit a job of ``work_units`` of work.

        ``on_complete`` is invoked with the job's sojourn time (milliseconds)
        when the job finishes.

        Raises
        ------
        ServerBusyError
            If the server's admission limit is reached.
        """
        if work_units <= 0:
            raise ValueError(f"work_units must be positive, got {work_units}")
        if self._max_concurrency is not None and len(self._jobs) >= self._max_concurrency:
            self.rejected_jobs += 1
            raise ServerBusyError(
                f"server {self.name!r} at max concurrency {self._max_concurrency}"
            )
        self._drain_progress()
        job_id = self._next_job_id
        self._next_job_id += 1
        self._jobs[job_id] = _Job(
            job_id=job_id,
            remaining_work=float(work_units),
            submitted_at_ms=self._engine.now_ms,
            on_complete=on_complete,
        )
        self._reschedule_completion()
        return job_id

    def _drain_progress(self) -> None:
        """Apply service progress accumulated since the last population change."""
        now = self._engine.now_ms
        elapsed = now - self._last_update_ms
        self._last_update_ms = now
        if elapsed <= 0 or not self._jobs:
            return
        rate = self.per_job_rate()
        self.busy_time_ms += elapsed
        for job in self._jobs.values():
            job.remaining_work -= rate * elapsed

    def _reschedule_completion(self) -> None:
        if not self._jobs:
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            return
        rate = self.per_job_rate()
        next_job = min(self._jobs.values(), key=lambda job: job.remaining_work)
        target_ms = self._engine.now_ms + max(next_job.remaining_work / rate, 0.0)
        event = self._completion_event
        if event is not None and not event.cancelled:
            # Lazy cancellation: an event that fires *no later* than the new
            # completion time can be kept — if it fires early, the handler
            # below finds nothing finished and re-arms at the corrected time.
            if event.time_ms <= target_ms + 1e-9:
                return
            event.cancel()
        self._completion_event = self._engine.schedule_at(
            target_ms, self._complete_next, label=f"{self.name}:complete"
        )

    def _complete_next(self) -> None:
        self._completion_event = None
        self._drain_progress()
        finished = [job for job in self._jobs.values() if job.remaining_work <= 1e-9]
        if not finished and self._jobs:
            rate = self.per_job_rate()
            next_job = min(self._jobs.values(), key=lambda job: job.remaining_work)
            delay = next_job.remaining_work / rate
            if delay > 1e-6:
                # Stale early fire (the population grew after this event was
                # scheduled, slowing every job): re-arm at the corrected time.
                self._completion_event = self._engine.schedule_after(
                    delay, self._complete_next, label=f"{self.name}:complete"
                )
                return
            # Numerical drift can leave the smallest job epsilon short; force
            # completion of the minimum-work job to preserve progress.
            finished = [next_job]
        for job in finished:
            del self._jobs[job.job_id]
            self.completed_jobs += 1
            sojourn = self._engine.now_ms - job.submitted_at_ms
            job.on_complete(sojourn)
        self._reschedule_completion()

    def __repr__(self) -> str:
        return (
            f"ProcessorSharingServer(name={self.name!r}, cores={self._cores}, "
            f"in_service={self.in_service}, completed={self.completed_jobs})"
        )
