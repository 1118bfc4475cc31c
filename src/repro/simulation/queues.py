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

import numpy as np

#: A submit that takes the population past this many jobs moves the remaining
#: work into an ndarray; a removal that takes it below ``_LIST_BELOW`` moves it
#: back to a list.  A list comprehension beats a numpy call below about 30
#: jobs; the ndarray is 2x faster at 64 and about 10x at 240 (the admission
#: limit of the registry's overload scenarios).  The gap between the two keeps
#: a population hovering near one threshold from converting back and forth.
_VECTOR_ABOVE = 48
_LIST_BELOW = 24


class ProcessorSharingServer:
    """An egalitarian processor-sharing server driven by a simulation engine.

    The server has a total service rate expressed in *work units per
    millisecond* and a parallelism width.  While the number of in-service jobs
    is at most the parallelism width each job receives the full per-core rate;
    beyond that, the total rate is shared equally among all in-service jobs.
    Admission control is the caller's business
    (:attr:`repro.cloud.server.CloudInstance.admission_limit`).

    **Representation.**  The jobs in service are kept in submission order in
    three parallel sequences: remaining work, submit time and completion
    callback.  Every population change (a submission or a completion) first
    applies the progress made since the previous one: ``step = rate *
    elapsed`` once, then ``w - step`` for every job.  The next completion is
    the job holding ``min(remaining)``; where a specific job is needed it is
    the *first* one in submission order holding that minimum.  That minimum
    is tracked rather than rescanned: a submission can only lower it, a
    progress update lowers it by ``step`` (rounding is monotone, so the
    smallest job stays smallest and ``min - step`` is exactly its new value),
    and only a removal needs a scan.  Finished jobs (remaining work ``<=
    1e-9``) are looked for only when the minimum says one exists, and they
    leave one at a time in submission order, each removed just before its
    callback runs.

    The remaining work has two storages, chosen by the population.  Up to
    48 jobs it is a plain list, and each pass over it is one list
    comprehension or builtin ``min``: a numpy call costs 0.7-3.5 us, more
    than a comprehension over a few floats, and most servers hold a few jobs.
    A submit that takes the population past 48 moves it into a float64
    ndarray buffer, where the progress update is one in-place ``-=`` on the
    live prefix and the finished scan, the minimum and a removal are one C
    call each; a crowded server (up to its admission limit of a few hundred
    jobs) then no longer pays a Python pass per job.  A removal that takes
    the population below 24 moves it back to a list.

    **Bit-identity.**  The progress update is the same IEEE subtraction per
    job, in the same order, as a per-job ``remaining -= rate * elapsed``
    loop: a float64 ndarray subtraction is the same correctly rounded
    operation as Python's, and the per-job rate is evaluated as ``(rate *
    cores) / population`` on either storage.  The tie-break (a list's
    ``index``, an ndarray's ``argmin`` and ascending ``nonzero``) equals
    ``min`` over an insertion-ordered mapping keyed by remaining work.  So
    every completion time, sojourn and engine event matches the
    per-job-object formulation bit for bit on both storages and across the
    switch (pinned by an oracle property test).

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
        self._clock = engine.clock
        self._rate_per_core = float(service_rate_per_core)
        self._cores = int(cores)
        # The total rate shared beyond ``cores`` jobs: ``rate * cores / n``
        # evaluates this product first, so it is the same float.
        self._total_rate = self._rate_per_core * self._cores
        self.name = name
        self._label = f"{name}:complete"
        # Remaining work: the list, or None while it lives in ``_buffer``,
        # whose first ``in_service`` entries are the jobs (see above).
        self._remaining: Optional[List[float]] = []
        self._buffer: Optional[np.ndarray] = None
        self._submitted_ms: List[float] = []
        self._callbacks: List[Callable[[float], None]] = []
        # Always equal to the minimum remaining work, inf when idle.
        self._smallest = math.inf
        self._last_update_ms = engine.now_ms
        self._completion_event = None
        self.completed_jobs = 0

    @property
    def in_service(self) -> int:
        """Number of jobs currently being served."""
        return len(self._callbacks)

    def per_job_rate(self) -> float:
        """Service rate each job in service receives now."""
        population = len(self._callbacks)
        if population <= self._cores:
            return self._rate_per_core
        return self._total_rate / population

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
        remaining = self._remaining
        if remaining is not None:
            remaining.append(work_units)
            if len(remaining) > _VECTOR_ABOVE:
                self._to_buffer()
        else:
            self._push_buffer(work_units)
        self._submitted_ms.append(now)
        self._callbacks.append(on_complete)
        self._reschedule_completion(now)

    def _to_buffer(self) -> None:
        remaining = self._remaining
        self._buffer = buffer = np.empty(2 * len(remaining))
        buffer[: len(remaining)] = remaining
        self._remaining = None

    def _push_buffer(self, work_units: float) -> None:
        position = len(self._callbacks)
        if position == self._buffer.size:
            self._buffer = np.concatenate((self._buffer, np.empty(position)))
        self._buffer[position] = work_units

    def _pop_buffer(self, position: int) -> None:
        """Drop the work at ``position``; its callback and submit time are popped."""
        population = len(self._callbacks)
        buffer = self._buffer
        buffer[position:population] = buffer[position + 1 : population + 1]
        if population < _LIST_BELOW:
            self._remaining = buffer[:population].tolist()
            self._buffer = None
            self._smallest = min(self._remaining, default=math.inf)
        else:
            # ``argmin`` is one C call; ``ndarray.min`` adds a Python wrapper.
            self._smallest = float(buffer[buffer[:population].argmin()])

    def _drain_progress(self) -> float:
        """Apply service progress accumulated since the last population change.

        Returns the current simulated time.
        """
        now = self._clock._now_ms
        elapsed = now - self._last_update_ms
        if elapsed > 0:
            self._last_update_ms = now
            population = len(self._callbacks)
            if population:
                # ``per_job_rate()`` inlined: this runs at every population change.
                if population <= self._cores:
                    step = self._rate_per_core * elapsed
                else:
                    step = self._total_rate / population * elapsed
                remaining = self._remaining
                if remaining is not None:
                    self._remaining = [work - step for work in remaining]
                else:
                    self._buffer[:population] -= step
                self._smallest -= step
        return now

    def _reschedule_completion(self, now: float) -> None:
        population = len(self._callbacks)
        if not population:
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            return
        if population <= self._cores:
            rate = self._rate_per_core
        else:
            rate = self._total_rate / population
        target_ms = now + max(self._smallest / rate, 0.0)
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
        population = len(self._callbacks)
        if not population:
            return
        remaining = self._remaining
        smallest = self._smallest
        if smallest <= 1e-9:
            if remaining is not None:
                finished = [i for i, work in enumerate(remaining) if work <= 1e-9]
            else:
                finished = (self._buffer[:population] <= 1e-9).nonzero()[0].tolist()
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
            if remaining is not None:
                finished = [remaining.index(smallest)]
            else:
                finished = [int(self._buffer[:population].argmin())]
        # Each removal shifts the later finished positions down by one.  A
        # callback may submit to this server, which only appends, and may
        # switch the storage, so each removal looks it up afresh.
        for shift, position in enumerate(finished):
            position -= shift
            submitted_ms = self._submitted_ms.pop(position)
            on_complete = self._callbacks.pop(position)
            remaining = self._remaining
            if remaining is not None:
                del remaining[position]
                self._smallest = min(remaining, default=math.inf)
            else:
                self._pop_buffer(position)
            self.completed_jobs += 1
            on_complete(now - submitted_ms)
        # Emptied: no completion is pending (a submitting callback leaves jobs).
        if self._callbacks:
            self._reschedule_completion(now)

    def __repr__(self) -> str:
        return (
            f"ProcessorSharingServer(name={self.name!r}, cores={self._cores}, "
            f"in_service={self.in_service}, completed={self.completed_jobs})"
        )
