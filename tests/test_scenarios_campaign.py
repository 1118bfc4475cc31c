"""Tests for the parallel campaign runner."""

import csv
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.scenarios import (
    CampaignError,
    CampaignResult,
    CampaignRunner,
    ScenarioSpec,
    WorkloadSpec,
    derive_scenario_seed,
)
from repro.scenarios import campaign as campaign_module
from repro.scenarios.campaign import EXECUTION_CONTEXT


def tiny_spec(name: str, **kwargs) -> ScenarioSpec:
    defaults = dict(
        name=name,
        users=8,
        duration_hours=0.25,
        slot_minutes=7.5,
        workload=WorkloadSpec(pattern="uniform", target_requests=60),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def broken_spec(name: str, **kwargs) -> ScenarioSpec:
    """A spec that validates but raises once run: its task is unknown."""
    spec = tiny_spec(name, **kwargs)
    object.__setattr__(spec, "task_name", "no-such-task")
    return spec


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_scenario_seed(0, "a") == derive_scenario_seed(0, "a")

    def test_differs_by_name_and_root(self):
        assert derive_scenario_seed(0, "a") != derive_scenario_seed(0, "b")
        assert derive_scenario_seed(0, "a") != derive_scenario_seed(1, "a")


class TestCampaignRunner:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="workers"):
            CampaignRunner(workers=0)
        with pytest.raises(ValueError, match="seed"):
            CampaignRunner(seed=-1)
        with pytest.raises(ValueError, match="at least one"):
            CampaignRunner().run([])

    def test_rejects_duplicate_scenario_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignRunner(workers=1).run([tiny_spec("dup"), tiny_spec("dup")])

    def test_rejects_unknown_execution_mode(self):
        with pytest.raises(ValueError, match="execution"):
            CampaignRunner(execution="warp")

    def test_execution_override_matches_per_spec_batched_runs(self):
        specs = [tiny_spec("exec-a"), tiny_spec("exec-b")]
        overridden = CampaignRunner(workers=1, seed=0, execution="batched").run(specs)
        explicit = CampaignRunner(workers=1, seed=0).run(
            [spec.with_overrides(execution="batched") for spec in specs]
        )
        assert overridden.rows() == explicit.rows()

    def test_execution_none_keeps_spec_modes(self):
        event_only = CampaignRunner(workers=1, seed=0).run([tiny_spec("keep")])
        batched = CampaignRunner(workers=1, seed=0, execution="batched").run(
            [tiny_spec("keep")]
        )
        # Same plan, same request population; only the service model differs.
        assert event_only.results[0].requests_total == batched.results[0].requests_total

    def test_batched_campaign_covers_multisite_scenarios(self):
        from repro.scenarios import get_scenario

        specs = [
            get_scenario(name).with_overrides(
                users=8, duration_hours=0.25, target_requests=60
            )
            for name in ("region-outage-failover", "edge-vs-core")
        ]
        campaign = CampaignRunner(workers=1, seed=0, execution="batched").run(specs)
        assert len(campaign) == 2
        for result in campaign.results:
            assert result.is_multisite
            assert result.requests_total > 0

    def test_results_keep_submission_order(self):
        specs = [tiny_spec("c-third"), tiny_spec("a-first"), tiny_spec("b-second")]
        campaign = CampaignRunner(workers=1, seed=0).run(specs)
        assert [r.name for r in campaign.results] == ["c-third", "a-first", "b-second"]

    def test_parallel_equals_serial(self):
        specs = [tiny_spec(f"s{i}") for i in range(3)]
        serial = CampaignRunner(workers=1, seed=3).run(specs)
        parallel = CampaignRunner(workers=3, seed=3).run(specs)
        assert serial.rows() == parallel.rows()

    def test_identical_campaign_seeds_reproduce_metrics(self):
        specs = [tiny_spec("r1"), tiny_spec("r2")]
        first = CampaignRunner(workers=2, seed=9).run(specs)
        second = CampaignRunner(workers=2, seed=9).run(specs)
        assert first.rows() == second.rows()

    def test_spec_pinned_seed_wins_over_derived(self):
        campaign = CampaignRunner(workers=1, seed=4).run([tiny_spec("pin", seed=77)])
        assert campaign.results[0].seed == 77

    def test_format_table_and_csv(self, tmp_path):
        campaign = CampaignRunner(workers=1, seed=0).run([tiny_spec("csvme")])
        table = campaign.format_table()
        assert "csvme" in table
        assert "p95_ms" in table
        path = campaign.to_csv(tmp_path / "campaign.csv")
        with path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["scenario"] == "csvme"
        assert float(rows[0]["requests"]) > 0


class TestMixedTelemetryRecordAlignment:
    """``records`` must stay index-aligned with ``results`` when only some
    specs opt into telemetry — a shifted tuple silently pairs record ``i``
    with the wrong scenario in any positional zip."""

    def test_records_align_index_wise(self):
        specs = [
            tiny_spec("plain-a"),
            tiny_spec("traced", telemetry=True),
            tiny_spec("plain-b"),
        ]
        campaign = CampaignRunner(workers=1, seed=0).run(specs)
        assert len(campaign.records) == len(campaign.results)
        assert campaign.records[0] is None
        assert campaign.records[2] is None
        assert campaign.records[1] is not None
        for result, record in zip(campaign.results, campaign.records):
            if record is not None:
                assert record.scenario == result.name

    def test_get_record_skips_placeholders(self):
        specs = [tiny_spec("dark"), tiny_spec("lit", telemetry=True)]
        campaign = CampaignRunner(workers=1, seed=0).run(specs)
        by_name = {record.scenario: record for record in campaign.records if record is not None}
        assert list(by_name) == ["lit"]
        assert campaign.records[0] is None

    def test_no_telemetry_anywhere_yields_empty_records(self):
        campaign = CampaignRunner(workers=1, seed=0).run(
            [tiny_spec("a"), tiny_spec("b")]
        )
        assert campaign.records == ()

    def test_alignment_survives_the_pool(self):
        specs = [
            tiny_spec("pool-plain"),
            tiny_spec("pool-traced", telemetry=True),
        ]
        campaign = CampaignRunner(workers=2, seed=0).run(specs)
        assert campaign.records[0] is None
        assert campaign.records[1].scenario == "pool-traced"


class TestCampaignFailures:
    """One raising scenario must not discard the rest of the campaign."""

    SPECS = ("ok-first", "broken", "ok-last")

    def specs(self):
        return [
            broken_spec(name) if name == "broken" else tiny_spec(name)
            for name in self.SPECS
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_keeps_partial_results(self, workers):
        with pytest.raises(CampaignError) as caught:
            CampaignRunner(workers=workers, seed=0).run(self.specs())
        error = caught.value
        assert [name for name, _ in error.failures] == ["broken"]
        assert "no-such-task" in error.failures[0][1]
        assert "Traceback" in error.failures[0][1]
        assert "1 of 3 scenarios failed: broken" in str(error)
        partial = error.partial
        assert isinstance(partial, CampaignResult)
        assert [r.name for r in partial.results] == ["ok-first", "ok-last"]
        clean = CampaignRunner(workers=1, seed=0).run(
            [tiny_spec("ok-first"), tiny_spec("ok-last")]
        )
        assert partial.rows() == clean.rows()
        assert partial.records == ()

    def test_partial_records_align_with_partial_results(self):
        specs = [tiny_spec("traced-a"), broken_spec("broken"), tiny_spec("traced-b")]
        with pytest.raises(CampaignError) as caught:
            CampaignRunner(workers=1, seed=0, telemetry=True).run(specs)
        partial = caught.value.partial
        assert [r.scenario for r in partial.records] == ["traced-a", "traced-b"]

    def test_every_scenario_failing(self):
        with pytest.raises(CampaignError) as caught:
            CampaignRunner(workers=1).run([broken_spec("x"), broken_spec("y")])
        assert len(caught.value.partial) == 0
        assert [name for name, _ in caught.value.failures] == ["x", "y"]

    def test_cli_prints_successes_and_failures(self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(
            cli,
            "get_scenario",
            lambda name: broken_spec(name) if name == "broken" else tiny_spec(name),
        )
        code = cli.main(
            ["scenario", "campaign", "--only", "ok-first,broken,ok-last", "--workers", "1"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "ok-first" in captured.out and "ok-last" in captured.out
        assert "broken" not in captured.out
        assert "scenario broken failed:" in captured.err
        assert "no-such-task" in captured.err
        assert "1 of 3 scenarios failed: broken" in captured.err


def sized(name: str, requests: int, **kwargs) -> ScenarioSpec:
    """A tiny spec whose planned request count is ``requests``."""
    workload = WorkloadSpec(pattern="uniform", target_requests=requests)
    return tiny_spec(name, workload=workload, **kwargs)


class UnstartedHelper:
    """A helper process that never starts, so the parent drains the queue alone."""

    def __init__(self, started, target, args, daemon):
        started.append(self)

    def start(self):
        pass

    def terminate(self):
        pass

    def join(self):
        pass


class ParentOnlyContext:
    """Real pipes, helpers that never start; counts the helpers asked for."""

    def __init__(self):
        self.started = []

    def Pipe(self):
        return EXECUTION_CONTEXT.Pipe()

    def Process(self, target, args, daemon):
        return UnstartedHelper(self.started, target, args, daemon)


@pytest.fixture
def parent_only(monkeypatch):
    """Start no helpers; returns the context and the parent's run order."""
    context = ParentOnlyContext()
    ran = []
    guarded = campaign_module._run_job_guarded

    def recording(job):
        ran.append(job[0].name)
        return guarded(job)

    monkeypatch.setattr(campaign_module, "EXECUTION_CONTEXT", context)
    monkeypatch.setattr(campaign_module, "_run_job_guarded", recording)
    return context, ran


FIVE_SIZES = (("a-60", 60), ("b-200", 200), ("c-120", 120), ("d-200", 200), ("e-60", 60))


class TestDispatchOrder:
    """All processes take jobs largest-first; every output keeps submission order."""

    def test_queue_is_largest_first_with_ties_in_submission_order(self, parent_only):
        context, ran = parent_only
        specs = [sized(name, requests) for name, requests in FIVE_SIZES]
        campaign = CampaignRunner(workers=2, seed=0).run(specs)
        assert len(context.started) == 1
        assert ran == ["b-200", "d-200", "c-120", "a-60", "e-60"]
        assert [r.name for r in campaign.results] == [s.name for s in specs]
        serial = CampaignRunner(workers=1, seed=0).run(specs)
        assert campaign.rows() == serial.rows()

    @pytest.mark.parametrize(
        "workers, jobs, helpers", [(2, 5, 1), (3, 5, 2), (5, 5, 4), (8, 5, 4), (4, 1, 0)]
    )
    def test_starts_one_helper_fewer_than_scenarios_at_once(
        self, parent_only, workers, jobs, helpers
    ):
        context, ran = parent_only
        specs = [sized(name, requests) for name, requests in FIVE_SIZES[:jobs]]
        campaign = CampaignRunner(workers=workers, seed=0).run(specs)
        assert len(context.started) == helpers
        assert sorted(ran) == sorted(s.name for s in specs)
        assert len(campaign) == jobs

    def test_outputs_keep_submission_order_when_a_small_first_job_fails(self):
        specs = [
            broken_spec("small-broken", workload=WorkloadSpec(target_requests=60)),
            sized("mid-ok", 120),
            broken_spec("big-broken", workload=WorkloadSpec(target_requests=300)),
            sized("large-ok", 600),
        ]
        errors = {}
        for workers in (1, 2, 3):
            with pytest.raises(CampaignError) as caught:
                CampaignRunner(workers=workers, seed=0, telemetry=True).run(specs)
            errors[workers] = caught.value
        for workers in (2, 3):
            pooled = errors[workers]
            assert [r.name for r in pooled.partial.results] == ["mid-ok", "large-ok"]
            assert [r.scenario for r in pooled.partial.records] == ["mid-ok", "large-ok"]
            assert [name for name, _ in pooled.failures] == ["small-broken", "big-broken"]
            assert pooled.partial.rows() == errors[1].partial.rows()
            assert str(pooled) == str(errors[1])

    def test_serial_campaign_never_reorders(self, monkeypatch):
        class NoHelpers:
            def __getattr__(self, name):
                raise AssertionError("a one-worker campaign must not start helpers")

        ran = []
        guarded = campaign_module._run_job_guarded

        def recording(job):
            ran.append(job[0].name)
            return guarded(job)

        monkeypatch.setattr(campaign_module, "EXECUTION_CONTEXT", NoHelpers())
        monkeypatch.setattr(campaign_module, "_run_job_guarded", recording)
        specs = [sized("small", 60), sized("large", 200), sized("mid", 120)]
        campaign = CampaignRunner(workers=1, seed=0).run(specs)
        assert ran == ["small", "large", "mid"]
        assert [r.name for r in campaign.results] == ran


class TestSharedQueue:
    def test_every_job_runs_once_under_fast_thread_switches(self):
        """Four processes share one queue while the thread serving the
        helpers and the parent's own loop switch every microsecond; a job
        taken twice or an outcome lost would change the rows."""
        specs = [sized(f"q{i}", 60 + 20 * (i % 3)) for i in range(8)]
        serial = CampaignRunner(workers=1, seed=5).run(specs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcome = run_within(120, CampaignRunner(workers=4, seed=5), specs)
        finally:
            sys.setswitchinterval(interval)
        assert outcome["campaign"].rows() == serial.rows()
        assert multiprocessing.active_children() == []


class HelperTrap:
    """A telemetry flag that, read in a helper process, touches ``marker``
    and then exits with ``exit_code`` (or, when it is ``None``, hangs until
    killed).  Read in the parent, it is false."""

    def __init__(self, marker, exit_code=None):
        self.marker = str(marker)
        self.exit_code = exit_code

    def __bool__(self):
        if multiprocessing.parent_process() is None:
            return False
        Path(self.marker).touch()
        if self.exit_code is not None:
            os._exit(self.exit_code)
        time.sleep(600)
        return False


def run_within(seconds, runner, specs):
    """``runner.run(specs)`` in a thread that must end within ``seconds``."""
    outcome = {}

    def target():
        try:
            outcome["campaign"] = runner.run(specs)
        except BaseException as error:
            outcome["error"] = error

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"campaign still running after {seconds} s"
    return outcome


class TestDeadHelper:
    """A helper that dies fails its own scenario only, and never hangs the run.

    The parent holds the largest job until the helper has taken the next one,
    so the helper dies mid-scenario and the parent runs everything still
    queued.
    """

    SPECS = (("small", 60), ("largest", 240), ("second", 200), ("mid", 120))

    def run_until_helper_dies(self, monkeypatch, tmp_path, exit_code):
        marker = tmp_path / "helper-took-a-job"
        guarded = campaign_module._run_job_guarded
        killed = []

        def parent_job(job):
            if not killed:
                deadline = time.monotonic() + 60
                while not marker.exists():
                    assert time.monotonic() < deadline, "helper never took a job"
                    time.sleep(0.01)
                if exit_code is None:
                    (helper,) = multiprocessing.active_children()
                    os.kill(helper.pid, signal.SIGKILL)
                while multiprocessing.active_children():
                    assert time.monotonic() < deadline, "helper still running"
                    time.sleep(0.01)
                killed.append(True)
            return guarded(job)

        monkeypatch.setattr(campaign_module, "_run_job_guarded", parent_job)
        specs = [sized(name, requests) for name, requests in self.SPECS]
        runner = CampaignRunner(workers=2, seed=0, telemetry=HelperTrap(marker, exit_code))
        outcome = run_within(120, runner, specs)
        assert multiprocessing.active_children() == []
        error = outcome["error"]
        assert isinstance(error, CampaignError)
        done = [r.name for r in error.partial.results]
        failed = [name for name, _ in error.failures]
        assert sorted(done + failed) == sorted(name for name, _ in self.SPECS)
        assert failed == ["second"]
        assert done == ["small", "largest", "mid"]
        clean = CampaignRunner(workers=1, seed=0).run(
            [sized(name, requests) for name, requests in self.SPECS if name != "second"]
        )
        assert error.partial.rows() == clean.rows()
        return error.failures[0][1]

    def test_sigkilled_helper(self, monkeypatch, tmp_path):
        text = self.run_until_helper_dies(monkeypatch, tmp_path, exit_code=None)
        assert f"exited with code {-signal.SIGKILL}" in text

    def test_helper_exit_code_is_named(self, monkeypatch, tmp_path):
        text = self.run_until_helper_dies(monkeypatch, tmp_path, exit_code=7)
        assert "helper process exited with code 7" in text

    def test_helpers_are_stopped_when_run_raises(self, monkeypatch, tmp_path):
        marker = tmp_path / "helper-took-a-job"

        def interrupted(job):
            deadline = time.monotonic() + 60
            while not marker.exists():
                assert time.monotonic() < deadline, "helper never took a job"
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign_module, "_run_job_guarded", interrupted)
        specs = [sized(name, requests) for name, requests in self.SPECS]
        runner = CampaignRunner(workers=2, seed=0, telemetry=HelperTrap(marker))
        outcome = run_within(120, runner, specs)
        assert isinstance(outcome["error"], KeyboardInterrupt)
        assert multiprocessing.active_children() == []


class TestSpawnPickleContract:
    """Every helper payload must survive the spawn pickler."""

    def test_execution_context_is_pinned(self):
        assert EXECUTION_CONTEXT.get_start_method() == "spawn"

    def test_campaign_job_round_trips(self):
        from repro.scenarios.campaign import _run_job

        spec = tiny_spec(
            "pickle-job",
            users=24,
            duration_hours=0.5,
            task_name="fibonacci",
            execution="batched",
            workload=WorkloadSpec(target_requests=120),
        )
        job = pickle.loads(pickle.dumps((spec, 3, False)))
        result, record = _run_job(job)
        assert result.requests_total > 0
        assert record is None
