"""Tests for the parallel campaign runner."""

import csv
import pickle

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
from repro.scenarios.pool import execution_context


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


class FakePool:
    """An in-process pool that records the order its jobs reach ``map``."""

    def __init__(self, dispatched):
        self.dispatched = dispatched

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, func, jobs, chunksize=1):
        self.dispatched.extend(spec.name for spec, _, _ in jobs)
        return [func(job) for job in jobs]


@pytest.fixture
def dispatched(monkeypatch):
    """Route the campaign's pool through :class:`FakePool`; returns its record."""
    order = []

    class FakeContext:
        def Pool(self, processes):
            return FakePool(order)

    monkeypatch.setattr(campaign_module, "execution_context", FakeContext)
    return order


class TestDispatchOrder:
    """The pool gets jobs largest-first; every output keeps submission order."""

    def test_pool_gets_largest_first_with_ties_in_submission_order(self, dispatched):
        specs = [
            sized("a-60", 60),
            sized("b-200", 200),
            sized("c-120", 120),
            sized("d-200", 200),
            sized("e-60", 60),
        ]
        campaign = CampaignRunner(workers=2, seed=0).run(specs)
        assert dispatched == ["b-200", "d-200", "c-120", "a-60", "e-60"]
        assert [r.name for r in campaign.results] == [s.name for s in specs]
        serial = CampaignRunner(workers=1, seed=0).run(specs)
        assert campaign.rows() == serial.rows()

    def test_outputs_keep_submission_order_when_a_small_first_job_fails(self):
        specs = [
            broken_spec("small-broken", workload=WorkloadSpec(target_requests=60)),
            sized("mid-ok", 120),
            broken_spec("big-broken", workload=WorkloadSpec(target_requests=300)),
            sized("large-ok", 600),
        ]
        errors = {}
        for workers in (1, 2):
            with pytest.raises(CampaignError) as caught:
                CampaignRunner(workers=workers, seed=0, telemetry=True).run(specs)
            errors[workers] = caught.value
        pooled = errors[2]
        assert [r.name for r in pooled.partial.results] == ["mid-ok", "large-ok"]
        assert [r.scenario for r in pooled.partial.records] == ["mid-ok", "large-ok"]
        assert [name for name, _ in pooled.failures] == ["small-broken", "big-broken"]
        assert pooled.partial.rows() == errors[1].partial.rows()
        assert str(pooled) == str(errors[1])

    def test_serial_campaign_never_reorders(self, monkeypatch):
        def no_pool():
            raise AssertionError("a one-worker campaign must not build a pool")

        ran = []
        guarded = campaign_module._run_job_guarded

        def recording(job):
            ran.append(job[0].name)
            return guarded(job)

        monkeypatch.setattr(campaign_module, "execution_context", no_pool)
        monkeypatch.setattr(campaign_module, "_run_job_guarded", recording)
        specs = [sized("small", 60), sized("large", 200), sized("mid", 120)]
        campaign = CampaignRunner(workers=1, seed=0).run(specs)
        assert ran == ["small", "large", "mid"]
        assert [r.name for r in campaign.results] == ran


class TestSpawnPickleContract:
    """Every pool payload must survive the spawn/forkserver pickler."""

    def test_execution_context_is_pinned(self):
        method = execution_context().get_start_method()
        assert method in ("forkserver", "spawn")

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
