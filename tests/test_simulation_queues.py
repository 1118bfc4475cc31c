"""Tests for the processor-sharing server."""

import pytest

from repro.simulation.engine import SimulationEngine
from repro.simulation.queues import ProcessorSharingServer, ServerBusyError


class TestProcessorSharingServer:
    def _server(self, engine, rate=1.0, cores=1, max_concurrency=None):
        return ProcessorSharingServer(
            engine,
            service_rate_per_core=rate,
            cores=cores,
            max_concurrency=max_concurrency,
            name="test",
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

    def test_max_concurrency_rejects_excess_jobs(self, engine):
        server = self._server(engine, max_concurrency=1)
        server.submit(100.0, lambda s: None)
        with pytest.raises(ServerBusyError):
            server.submit(100.0, lambda s: None)
        assert server.rejected_jobs == 1

    def test_rejects_non_positive_work(self, engine):
        server = self._server(engine)
        with pytest.raises(ValueError):
            server.submit(0.0, lambda s: None)

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
        assert server.per_job_rate(2) == pytest.approx(2.0)
        assert server.per_job_rate(4) == pytest.approx(2.0)
        assert server.per_job_rate(8) == pytest.approx(1.0)

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
