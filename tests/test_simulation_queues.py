"""Tests for the processor-sharing server."""

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import SimulationEngine
from repro.simulation.queues import ProcessorSharingServer


class TestProcessorSharingServer:
    def _server(self, engine, rate=1.0, cores=1):
        return ProcessorSharingServer(
            engine, service_rate_per_core=rate, cores=cores, name="test"
        )

    def test_single_job_takes_work_over_rate(self, engine):
        server = self._server(engine, rate=2.0)
        done = []
        server.submit(100.0, lambda sojourn: done.append(sojourn))
        engine.run()
        assert done == [pytest.approx(50.0)]

    def test_two_jobs_share_a_single_core(self, engine):
        server = self._server(engine, rate=1.0, cores=1)
        done = {}
        server.submit(100.0, lambda s: done.setdefault("a", s))
        server.submit(100.0, lambda s: done.setdefault("b", s))
        engine.run()
        # Two equal jobs sharing one unit-rate core both finish at t=200.
        assert done["a"] == pytest.approx(200.0)
        assert done["b"] == pytest.approx(200.0)

    def test_jobs_within_core_count_do_not_interfere(self, engine):
        server = self._server(engine, rate=1.0, cores=2)
        done = {}
        server.submit(100.0, lambda s: done.setdefault("a", s))
        server.submit(100.0, lambda s: done.setdefault("b", s))
        engine.run()
        assert done["a"] == pytest.approx(100.0)
        assert done["b"] == pytest.approx(100.0)

    def test_shorter_job_finishes_first(self, engine):
        server = self._server(engine, rate=1.0, cores=1)
        finished = []
        server.submit(50.0, lambda s: finished.append(("short", engine.now_ms)))
        server.submit(200.0, lambda s: finished.append(("long", engine.now_ms)))
        engine.run()
        assert finished[0][0] == "short"
        assert finished[1][0] == "long"
        # Short job: both share until it completes at t=100 (50 work at rate 1/2),
        # long job then runs alone: remaining 150 work done by t=250.
        assert finished[0][1] == pytest.approx(100.0)
        assert finished[1][1] == pytest.approx(250.0)

    def test_staggered_arrivals_account_for_partial_progress(self, engine):
        server = self._server(engine, rate=1.0, cores=1)
        done = {}
        server.submit(100.0, lambda s: done.setdefault("first", engine.now_ms))
        engine.schedule_at(50.0, lambda: server.submit(100.0, lambda s: done.setdefault("second", engine.now_ms)))
        engine.run()
        # First job runs alone for 50ms (50 work left), then shares: finishes at 150.
        assert done["first"] == pytest.approx(150.0)
        # Second arrives at 50 with 100 work: shares until 150 (50 done), then alone until 200.
        assert done["second"] == pytest.approx(200.0)

    def test_rejects_non_positive_work(self, engine):
        server = self._server(engine)
        with pytest.raises(ValueError):
            server.submit(0.0, lambda s: None)

    def test_rejects_nan_work(self, engine):
        server = self._server(engine)
        with pytest.raises(ValueError, match="work_units must be positive"):
            server.submit(math.nan, lambda s: None)
        assert server.in_service == 0
        assert engine.pending_events == 0

    def test_emptied_server_holds_no_completion_event(self, engine):
        # The last completion leaves nothing to re-arm; a callback that
        # submits keeps the server busy, and its job completes on time.
        server = self._server(engine)
        seen = []

        def chain(sojourn):
            if not seen:
                server.submit(5.0, chain)
            seen.append((engine.now_ms, server.in_service))

        server.submit(10.0, chain)
        engine.run()
        assert seen == [(10.0, 1), (15.0, 0)]
        assert server._completion_event is None
        assert engine.pending_events == 0

    def test_invalid_construction_parameters(self, engine):
        with pytest.raises(ValueError):
            ProcessorSharingServer(engine, service_rate_per_core=0.0, cores=1)
        with pytest.raises(ValueError):
            ProcessorSharingServer(engine, service_rate_per_core=1.0, cores=0)

    def test_completed_jobs_counter(self, engine):
        server = self._server(engine, cores=4)
        for _ in range(5):
            server.submit(10.0, lambda s: None)
        engine.run()
        assert server.completed_jobs == 5
        assert server.in_service == 0

    def test_per_job_rate_degrades_beyond_cores(self, engine):
        server = self._server(engine, rate=2.0, cores=4)
        for population, rate in ((2, 2.0), (4, 2.0), (8, 1.0)):
            while server.in_service < population:
                server.submit(100.0, lambda s: None)
            assert server.per_job_rate() == pytest.approx(rate)

    def test_work_conservation_under_many_jobs(self, engine):
        # Total completion time of n equal jobs on one core equals n * work / rate
        # regardless of the sharing discipline (work conservation).
        server = self._server(engine, rate=1.0, cores=1)
        completions = []
        for _ in range(10):
            server.submit(20.0, lambda s: completions.append(engine.now_ms))
        engine.run()
        assert max(completions) == pytest.approx(200.0)


class TestLazyCancellation:
    """The lazy next-completion rescheduling must preserve exact PS timing."""

    def _server(self, engine, rate=1.0, cores=1):
        return ProcessorSharingServer(
            engine, service_rate_per_core=rate, cores=cores, name="lazy"
        )

    def test_arrival_that_slows_service_keeps_event_and_rearms(self, engine):
        # One job of 100 units on one core at rate 1: due at t=100.  A second
        # job arriving at t=50 halves the rate, pushing the first completion
        # to t=150 — the stale t=100 event must re-arm, not complete early.
        server = self._server(engine)
        completions = []
        server.submit(100.0, lambda s: completions.append(("a", engine.now_ms)))
        engine.schedule_at(
            50.0,
            lambda: server.submit(100.0, lambda s: completions.append(("b", engine.now_ms))),
        )
        engine.run()
        assert completions[0] == ("a", pytest.approx(150.0))
        assert completions[1] == ("b", pytest.approx(200.0))

    def test_smaller_job_reschedules_earlier(self, engine):
        # A tiny job arriving mid-service must pull the next completion
        # earlier than the pending event (the eager-cancel branch).
        server = self._server(engine, cores=2)
        completions = []
        server.submit(100.0, lambda s: completions.append(("big", engine.now_ms)))
        engine.schedule_at(
            10.0,
            lambda: server.submit(5.0, lambda s: completions.append(("small", engine.now_ms))),
        )
        engine.run()
        assert completions[0] == ("small", pytest.approx(15.0))
        assert completions[1] == ("big", pytest.approx(100.0))

    def test_trajectory_matches_analytic_processor_sharing(self, engine):
        # Three staggered jobs on one core: the exact PS trajectory is easy
        # to compute by hand and must be unchanged by lazy rescheduling.
        server = self._server(engine)
        done = {}
        server.submit(30.0, lambda s: done.__setitem__("a", engine.now_ms))
        engine.schedule_at(
            10.0, lambda: server.submit(30.0, lambda s: done.__setitem__("b", engine.now_ms))
        )
        engine.schedule_at(
            20.0, lambda: server.submit(30.0, lambda s: done.__setitem__("c", engine.now_ms))
        )
        engine.run()
        # By hand: a runs solo to t=10 (20 left), shares halves to t=20
        # (a=15, b=25 left), then thirds until a finishes at t=65; b and c
        # drain to 10 and 15, b finishes at t=85, c solo until t=90.
        assert done["a"] == pytest.approx(65.0)
        assert done["b"] == pytest.approx(85.0)
        assert done["c"] == pytest.approx(90.0)

    def test_idle_server_cancels_pending_event(self, engine):
        server = self._server(engine)
        server.submit(10.0, lambda s: None)
        engine.run()
        assert server.in_service == 0
        assert engine.pending_events == 0


# --- oracle: the dict-of-job-objects server ----------------------------------
#
# The processor-sharing server as it was before its jobs moved into parallel
# lists, kept verbatim (only the class is renamed and ``__repr__`` dropped).
# Every float it computes is the reference the list-based server must
# reproduce bit for bit.


class ServerBusyError(RuntimeError):
    """Raised when a job is submitted to a server that cannot admit it."""


@dataclass
class _Job:
    job_id: int
    remaining_work: float
    submitted_at_ms: float
    on_complete: Callable[[float], None]


class DictProcessorSharingServer:
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


# Submission instants and work sizes drawn from small pools as well as freely,
# so that simultaneous submits, equal work sizes (ties on the minimum) and
# simultaneous completions all occur often.
_instants = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 10.0, 40.0]),
    st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
)
_works = st.one_of(
    st.sampled_from([1.0, 5.0, 20.0, 37.5, 100.0]),
    st.floats(min_value=1e-3, max_value=300.0, allow_nan=False),
)
_jobs = st.lists(
    st.tuples(_instants, _works, st.one_of(st.none(), _works)),
    min_size=1,
    max_size=40,
)




@st.composite
def _crowds(draw):
    """One or two bursts of up to 250 near-simultaneous jobs.

    Each burst cycles through at most four work sizes (so the minimum is
    often tied) and gives some of its jobs a follow-up, and a few jobs land
    at free instants in between.  A burst past 48 jobs moves the server's
    remaining work onto its ndarray storage, and draining it takes the
    population back below 24, onto the list.
    """
    jobs = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        start = draw(_instants)
        size = draw(st.integers(min_value=1, max_value=250))
        spacing = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.4]))
        works = draw(st.lists(_works, min_size=1, max_size=4))
        follow_every = draw(st.sampled_from([0, 2, 5, 11]))
        for i in range(size):
            follow_up = None
            if follow_every and i % follow_every == 0:
                follow_up = works[(i + 1) % len(works)]
            jobs.append((start + i * spacing, works[i % len(works)], follow_up))
    jobs.extend(draw(st.lists(st.tuples(_instants, _works, st.none()), max_size=10)))
    return jobs


def _drive(server_class, jobs, cores, rate, base_ms=0.0):
    """Run ``jobs`` through one server on a fresh engine; return what it saw.

    Each job is ``(submit_ms, work, follow_up)``, submitted at ``base_ms +
    submit_ms``; when ``follow_up`` is set the job's completion callback
    submits a second job of that size to the same server, from inside the
    completion event.  A large ``base_ms`` coarsens the clock's resolution so
    that rounding leaves jobs a hair short of done at their completion event,
    which exercises the stale re-arm and the forced-completion branch.
    """
    engine = SimulationEngine()
    server = server_class(engine, service_rate_per_core=rate, cores=cores, name="ps")
    seen = []

    def _submit(label, work, follow_up):
        def _done(sojourn):
            seen.append((label, engine.now_ms, sojourn, server.in_service))
            if follow_up is not None:
                _submit(label + 1000, follow_up, None)

        server.submit(work, _done)

    for label, (submit_ms, work, follow_up) in enumerate(jobs):
        engine.schedule_at(
            base_ms + submit_ms,
            lambda label=label, work=work, follow_up=follow_up: _submit(
                label, work, follow_up
            ),
        )
    engine.run()
    return (
        seen,
        server.completed_jobs,
        server.in_service,
        engine.processed_events,
        engine.cancelled_events,
        engine.pending_events,
        engine.now_ms,
    )


class TestBitIdenticalToDictServer:
    @given(
        jobs=_jobs,
        cores=st.sampled_from([1, 2, 4]),
        rate=st.sampled_from([0.7, 1.0, 2.0, 3.3]),
        base_ms=st.sampled_from([0.0, 3.6e7, 8.64e8]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_completions_sojourns_and_events(self, jobs, cores, rate, base_ms):
        # Exact equality on purpose: completion order, every completion time
        # and sojourn, the population each callback sees, and the engine's
        # processed/cancelled/pending counts and final clock.
        assert _drive(ProcessorSharingServer, jobs, cores, rate, base_ms) == _drive(
            DictProcessorSharingServer, jobs, cores, rate, base_ms
        )

    @given(
        jobs=_crowds(),
        cores=st.sampled_from([1, 2, 4]),
        rate=st.sampled_from([0.7, 1.0, 3.3]),
        base_ms=st.sampled_from([0.0, 8.64e8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_results_across_the_storage_switch(self, jobs, cores, rate, base_ms):
        assert _drive(ProcessorSharingServer, jobs, cores, rate, base_ms) == _drive(
            DictProcessorSharingServer, jobs, cores, rate, base_ms
        )

    def test_crowd_crosses_both_storage_thresholds(self):
        # 120 tied jobs in one burst, a third with a follow-up, then a late
        # trickle: the population passes 48 upward onto the ndarray and
        # falls below 24 back onto the list, and the results still match.
        storages = []

        class _Probe(ProcessorSharingServer):
            def submit(self, work_units, on_complete):
                super().submit(work_units, on_complete)
                storages.append((self.in_service, self._remaining is None))

            def _complete_next(self):
                super()._complete_next()
                storages.append((self.in_service, self._remaining is None))

        jobs = [(i * 0.01, (5.0, 20.0, 20.0)[i % 3], 5.0 if i % 3 == 0 else None)
                for i in range(120)]
        jobs += [(900.0 + i, 20.0, None) for i in range(5)]
        for base_ms in (0.0, 8.64e8):
            storages.clear()
            assert _drive(_Probe, jobs, 2, 1.0, base_ms) == _drive(
                DictProcessorSharingServer, jobs, 2, 1.0, base_ms
            )
            switches = [
                (before[1], after[0])
                for before, after in zip(storages, storages[1:])
                if before[1] != after[1]
            ]
            assert (False, 49) in switches  # onto the ndarray past 48 jobs
            assert (True, 23) in switches  # back onto the list below 24
            assert storages[-1] == (0, False)

    def test_simultaneous_equal_jobs_complete_in_submission_order(self):
        # Four equal jobs sharing two cores finish at one instant.
        jobs = [(0.0, 10.0, None)] * 3 + [(0.0, 10.0, 5.0), (2.0, 10.0, None)]
        ours = _drive(ProcessorSharingServer, jobs, 2, 1.0)
        assert ours == _drive(DictProcessorSharingServer, jobs, 2, 1.0)
        seen = ours[0]
        assert [label for label, *_ in seen[:4]] == [0, 1, 2, 3]
