"""Tests for the back-end pool of acceleration groups."""

import pytest

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG
from repro.cloud.server import CloudInstance


def make_instance(engine, type_name="t2.nano", **kwargs):
    return CloudInstance(engine, DEFAULT_CATALOG.get(type_name), **kwargs)


@pytest.fixture
def pool(engine):
    pool = BackendPool()
    pool.add_instance(make_instance(engine, "t2.nano"), 1)
    pool.add_instance(make_instance(engine, "t2.large"), 2)
    pool.add_instance(make_instance(engine, "m4.10xlarge"), 3)
    return pool


class TestMembership:
    def test_levels_sorted(self, pool):
        assert pool.levels == [1, 2, 3]

    def test_add_uses_catalog_level_by_default(self, engine):
        pool = BackendPool()
        pool.add_instance(make_instance(engine, "t2.large"))
        assert pool.levels == [2]

    def test_add_with_override_level(self, engine):
        pool = BackendPool()
        # The paper demotes t2.micro to group 0 after the Fig. 6 anomaly.
        pool.add_instance(make_instance(engine, "t2.micro"), 0)
        assert pool.levels == [0]

    def test_negative_level_rejected(self, engine):
        with pytest.raises(ValueError):
            BackendPool().add_instance(make_instance(engine), -1)

    def test_remove_instance(self, engine):
        pool = BackendPool()
        instance = make_instance(engine)
        pool.add_instance(instance, 1)
        pool.remove_instance(instance)
        assert pool.instances_for_level(1) == []

    def test_remove_missing_instance_raises(self, engine, pool):
        with pytest.raises(KeyError):
            pool.remove_instance(make_instance(engine))

    def test_total_instances(self, pool):
        assert [len(pool.instances_for_level(level)) for level in (1, 2, 3)] == [1, 1, 1]

    def test_highest_and_lowest_level(self, pool):
        assert pool.levels[-1] == 3
        assert pool.levels[0] == 1

    def test_empty_pool_levels_raise(self):
        assert BackendPool().levels == []
        with pytest.raises(ValueError, match="empty"):
            BackendPool().clamp_level(1)


class TestRoutingHelpers:
    def test_clamp_existing_level(self, pool):
        assert pool.clamp_level(2) == 2

    def test_clamp_missing_level_prefers_next_higher(self, engine):
        pool = BackendPool()
        pool.add_instance(make_instance(engine, "t2.large"), 2)
        assert pool.clamp_level(1) == 2

    def test_clamp_above_highest_falls_back_to_highest(self, pool):
        assert pool.clamp_level(9) == 3

    def test_select_least_loaded(self, engine):
        pool = BackendPool()
        busy = make_instance(engine, "t2.nano")
        idle = make_instance(engine, "t2.nano")
        pool.add_instance(busy, 1)
        pool.add_instance(idle, 1)
        busy.submit(1000.0, lambda o: None, 0.0)
        assert pool.select_instance(1) is idle

    def test_select_missing_level_raises(self, pool):
        with pytest.raises(KeyError):
            pool.select_instance(7) if 7 not in pool.levels else None
            BackendPool().select_instance(1)

    def test_dispatch_runs_request(self, engine, pool):
        outcomes = []
        assert pool.dispatch(1, 200.0, outcomes.append, jitter_z=0.0) is None
        engine.run()
        assert len(outcomes) == 1
        assert outcomes[0].accepted

    def test_dispatch_reports_drop(self, engine):
        pool = BackendPool()
        pool.add_instance(make_instance(engine, "t2.nano", admission_limit=1), 1)
        assert pool.dispatch(1, 100.0, lambda o: None, jitter_z=0.0) is None
        dropped = pool.dispatch(1, 100.0, lambda o: None, jitter_z=0.0)
        assert dropped is not None and not dropped.accepted

    def test_dispatch_requires_jitter_draw(self, pool):
        with pytest.raises(TypeError):
            pool.dispatch(1, 100.0, lambda o: None)

    def test_group_load_and_drop_counts(self, engine):
        pool = BackendPool()
        instance = make_instance(engine, "t2.nano", admission_limit=1)
        pool.add_instance(instance, 1)
        pool.dispatch(1, 100.0, lambda o: None, jitter_z=0.0)
        pool.dispatch(1, 100.0, lambda o: None, jitter_z=0.0)
        assert instance.in_service == 1
        assert instance.dropped_requests == 1

    def test_terminated_instances_are_not_selected(self, engine):
        pool = BackendPool()
        dead = make_instance(engine, "t2.nano")
        alive = make_instance(engine, "t2.nano")
        pool.add_instance(dead, 1)
        pool.add_instance(alive, 1)
        dead.terminate()
        assert pool.select_instance(1) is alive
        assert pool.instances_for_level(1) == [alive]
