"""Queueing primitive used by the cloud-instance server model.

:class:`ProcessorSharingServer` is an egalitarian processor-sharing service
model.  All admitted jobs share the server's total service rate equally, which
reproduces the characteristic response-time growth with concurrency of Fig. 4:
doubling the number of concurrent users roughly doubles the response time once
the server's parallelism is exhausted.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional


class ProcessorSharingServer:
    """An egalitarian processor-sharing server driven by a simulation engine.

    The server has a total service rate expressed in *work units per
    millisecond* and a parallelism width.  While the number of in-service jobs
    is at most the parallelism width each job receives the full per-core rate;
    beyond that, the total rate is shared equally among all in-service jobs.
    Admission control is the caller's business
    (:attr:`repro.cloud.server.CloudInstance.admission_limit`).

    **Representation.**  The jobs in service live in three parallel lists in
    submission order: remaining work, submit time and completion callback.
    Every population change (a submission or a completion) first applies the
    progress made since the previous one: ``step = rate * elapsed`` once, then
    ``w - step`` for every job.  The next completion is the job holding
    ``min(remaining)``; where a specific job is needed it is the *first* one
    in submission order holding that minimum.  That minimum is tracked
    rather than rescanned: a submission can only lower it, a progress update
    lowers it by ``step`` (rounding is monotone, so the smallest job stays
    smallest and ``min - step`` is exactly its new value), and only a
    removal needs a ``min`` scan.  Finished jobs (remaining work ``<= 1e-9``)
    are looked for only when the minimum says one exists, and they leave one
    at a time in submission order, each removed just before its callback
    runs.  Each scan is a builtin ``min`` or one list comprehension over
    plain floats, not a loop over job objects.

    **Bit-identity.**  The progress update is the same IEEE subtraction per
    job, in the same order, as a per-job ``remaining -= rate * elapsed``
    loop, and the tie-break equals ``min`` over an insertion-ordered mapping
    keyed by remaining work.  So every completion time, sojourn and engine
    event matches the per-job-object formulation bit for bit (pinned by an
    oracle property test).

    **Lazy rescheduling.**  Completion times are recomputed whenever the job
    population changes, but the pending next-completion event is only
    replaced when the new next completion moves **earlier** than the
    scheduled time.  When it moves later (the common case: every arrival
    beyond the parallelism width slows the jobs in service), the existing
    event is kept; on firing, the handler notices nothing has finished yet
    and re-arms itself at the corrected time if that is more than ``1e-6``
    ms away, or else forces the minimum-work job to complete (numerical
    drift can leave it epsilon short).  This trades one guaranteed
    cancel+push per arrival for at most one extra no-op pop per population
    change, while preserving the exact processor-sharing trajectory under
    piecewise-constant sharing.
    """

    def __init__(
        self,
        engine,
        *,
        service_rate_per_core: float,
        cores: int,
        name: str = "server",
    ) -> None:
        if service_rate_per_core <= 0:
            raise ValueError(f"service rate must be positive, got {service_rate_per_core}")
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self._engine = engine
        self._rate_per_core = float(service_rate_per_core)
        self._cores = int(cores)
        self.name = name
        self._label = f"{name}:complete"
        self._remaining: List[float] = []
        self._submitted_ms: List[float] = []
        self._callbacks: List[Callable[[float], None]] = []
        # Always equal to min(self._remaining), inf when idle (see above).
        self._smallest = math.inf
        self._last_update_ms = engine.now_ms
        self._completion_event = None
        self.completed_jobs = 0

    @property
    def in_service(self) -> int:
        """Number of jobs currently being served."""
        return len(self._remaining)

    @property
    def cores(self) -> int:
        return self._cores

    def per_job_rate(self, population: Optional[int] = None) -> float:
        """Service rate each job receives for a given population size."""
        population = len(self._remaining) if population is None else population
        if population <= self._cores:
            return self._rate_per_core
        return self._rate_per_core * self._cores / population

    def submit(self, work_units: float, on_complete: Callable[[float], None]) -> None:
        """Submit a job of ``work_units`` of work.

        ``on_complete`` is invoked with the job's sojourn time (milliseconds)
        when the job finishes.
        """
        if not work_units > 0:
            raise ValueError(f"work_units must be positive, got {work_units}")
        now = self._drain_progress()
        work_units = float(work_units)
        if work_units < self._smallest:
            self._smallest = work_units
        self._remaining.append(work_units)
        self._submitted_ms.append(now)
        self._callbacks.append(on_complete)
        self._reschedule_completion(now)

    def _drain_progress(self) -> float:
        """Apply service progress accumulated since the last population change.

        Returns the current simulated time.
        """
        now = self._engine.now_ms
        elapsed = now - self._last_update_ms
        self._last_update_ms = now
        if elapsed > 0 and self._remaining:
            step = self.per_job_rate() * elapsed
            self._remaining = [work - step for work in self._remaining]
            self._smallest -= step
        return now

    def _reschedule_completion(self, now: float) -> None:
        remaining = self._remaining
        if not remaining:
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            return
        target_ms = now + max(self._smallest / self.per_job_rate(), 0.0)
        event = self._completion_event
        if event is not None and not event.cancelled:
            # Lazy cancellation: an event that fires *no later* than the new
            # completion time can be kept — if it fires early, the handler
            # below finds nothing finished and re-arms at the corrected time.
            if event.time_ms <= target_ms + 1e-9:
                return
            event.cancel()
        self._completion_event = self._engine.schedule_at(
            target_ms, self._complete_next, self._label
        )

    def _complete_next(self) -> None:
        self._completion_event = None
        now = self._drain_progress()
        remaining = self._remaining
        if not remaining:
            self._reschedule_completion(now)
            return
        smallest = self._smallest
        if smallest <= 1e-9:
            finished = [i for i, work in enumerate(remaining) if work <= 1e-9]
        else:
            delay = smallest / self.per_job_rate()
            if delay > 1e-6:
                # Stale early fire (the population grew after this event was
                # scheduled, slowing every job): re-arm at the corrected time.
                self._completion_event = self._engine.schedule_at(
                    now + delay, self._complete_next, self._label
                )
                return
            # Numerical drift can leave the smallest job epsilon short; force
            # completion of the minimum-work job to preserve progress.
            finished = [remaining.index(smallest)]
        # Each removal shifts the later finished positions down by one.  A
        # callback may submit to this server, which only appends.
        for shift, position in enumerate(finished):
            position -= shift
            del self._remaining[position]
            self._smallest = min(self._remaining, default=math.inf)
            submitted_ms = self._submitted_ms.pop(position)
            on_complete = self._callbacks.pop(position)
            self.completed_jobs += 1
            on_complete(now - submitted_ms)
        self._reschedule_completion(now)

    def __repr__(self) -> str:
        return (
            f"ProcessorSharingServer(name={self.name!r}, cores={self._cores}, "
            f"in_service={self.in_service}, completed={self.completed_jobs})"
        )
