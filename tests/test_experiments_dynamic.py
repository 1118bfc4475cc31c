"""Tests for the Fig. 9 / Fig. 10b / Fig. 10c dynamic acceleration experiment."""

import numpy as np
import pytest

from repro.experiments.figure_dynamic import (
    dynamic_acceleration_spec,
    run_dynamic_acceleration,
)
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import PolicySpec


@pytest.fixture(scope="module")
def result():
    # A shortened run (2 hours, ~2000 requests, 60 users) keeps the module
    # fast while exercising the full pipeline: devices, moderators, SDN
    # front-end, back-end, hourly autoscaling.
    return run_dynamic_acceleration(
        seed=3, users=60, duration_hours=2.0, target_requests=2000
    )


class TestExperimentMechanics:
    def test_roughly_target_requests_processed(self, result):
        assert result.success.size == pytest.approx(2000, rel=0.1)

    def test_success_rate_is_high(self, result):
        assert result.success_rate() > 0.95

    def test_every_request_is_logged(self, result):
        # One entry per request the devices sent, in every column.
        sent = sum(device.requests_sent for device in result.devices.values())
        columns = (result.user_ids, result.groups, result.success, result.response_ms)
        assert [column.size for column in columns] == [sent] * 4
        # A dropped request reports no response time.
        assert (result.response_ms[~result.success] == 0.0).all()
        assert (result.response_ms[result.success] > 0.0).all()

    def test_all_users_participate(self, result):
        assert len(result.devices) == 60
        assert len(set(result.user_ids.tolist())) == 60

    def test_hourly_scaling_actions_recorded(self, result):
        assert len(result.scaling_actions) == 2

    def test_provisioning_cost_positive_and_bounded(self, result):
        assert 0.0 < result.total_cost < 50.0


class TestUserPerception:
    def test_some_users_promoted_with_1_in_50_policy(self, result):
        promoted = [device for device in result.devices.values() if device.promotions]
        assert promoted, "with ~2000 requests and p=1/50 some promotions must happen"

    def test_promotions_are_sequential_and_bounded(self, result):
        highest = max(result.group_types)
        lowest = min(result.group_types)
        for device in result.devices.values():
            assert lowest <= device.acceleration_group <= highest

    def test_stable_user_exists_and_has_consistent_group(self, result):
        user = result.stable_user()
        series = result.user_series(user)
        groups = {point["acceleration_group"] for point in series}
        assert groups == {min(result.group_types)}

    def test_mean_response_decreases_with_acceleration_group(self, result):
        """Fig. 9/10: higher acceleration groups see shorter response times."""
        by_group = result.mean_response_by_group()
        groups = sorted(by_group)
        for lower, higher in zip(groups, groups[1:]):
            assert by_group[higher] < by_group[lower]

    def test_promoted_user_sees_faster_responses_after_promotion(self, result):
        try:
            user = result.fully_promoted_user()
        except ValueError:
            pytest.skip("no user reached the top group in this short run")
        series = result.user_series(user)
        lowest = min(result.group_types)
        highest = max(result.group_types)
        before = [p["response_time_ms"] for p in series if p["acceleration_group"] == lowest]
        after = [p["response_time_ms"] for p in series if p["acceleration_group"] == highest]
        if before and after:
            assert np.mean(after) < np.mean(before)

    def test_promotion_summary_covers_all_users(self, result):
        summary = result.promotion_summary()
        assert set(summary) == set(result.devices)
        assert all(entry["final_group"] >= min(result.group_types) for entry in summary.values())


class TestPopulationSeries:
    def test_mean_response_by_window_produces_trend(self, result):
        windows = result.mean_response_by_window(8)
        assert len(windows) == 8
        assert all(value > 0 for value in windows)

    def test_rows_contain_headline_numbers(self, result):
        rows = result.rows()
        assert any("success_rate_pct" in row for row in rows)


class TestConfigurations:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            run_dynamic_acceleration(users=0)
        with pytest.raises(ValueError):
            run_dynamic_acceleration(duration_hours=0.0)
        with pytest.raises(ValueError):
            run_dynamic_acceleration(users=100, target_requests=10)

    def test_deterministic_for_same_seed(self):
        a = run_dynamic_acceleration(seed=11, users=20, duration_hours=0.5, target_requests=200)
        b = run_dynamic_acceleration(seed=11, users=20, duration_hours=0.5, target_requests=200)
        assert a.success.size == b.success.size
        assert a.mean_response_by_group() == b.mean_response_by_group()

    def test_zero_promotion_probability_keeps_everyone_in_lowest_group(self):
        result = run_dynamic_acceleration(
            seed=5, users=20, duration_hours=0.5, target_requests=300,
            policy=PolicySpec(promotion_probability=0.0),
        )
        assert all(not device.promotions for device in result.devices.values())
        assert set(result.mean_response_by_group()) == {min(result.group_types)}

    def test_overloaded_start_recovers_after_scaling(self):
        """Fig. 10b: response time rises until resources are allocated, then drops."""
        result = run_dynamic_acceleration(
            seed=7, users=60, duration_hours=1.5, target_requests=12000
        )
        windows = result.mean_response_by_window(10)
        # The first window (single under-provisioned nano) is far slower than
        # the post-scaling steady state.
        assert windows[0] > 1.5 * windows[-1]
        assert any(action.launched for action in result.scaling_actions)


class TestScenarioRunnerRun:
    def test_experiment_matches_run_scenario_on_its_spec(self):
        """The experiment is the scenario runner's run of its Section VI-C spec.

        The short, overloaded run drops requests, so the dropped count is
        compared on a non-trivial value.
        """
        spec = dynamic_acceleration_spec(
            users=20, duration_hours=0.25, target_requests=2500, policy=PolicySpec()
        )
        scenario = run_scenario(spec, seed=4)
        result = run_dynamic_acceleration(
            seed=4, users=20, duration_hours=0.25, target_requests=2500
        )
        successes = result.response_ms[result.success]
        dropped = int(np.count_nonzero(~result.success))
        assert dropped > 0
        assert result.success.size == scenario.requests_total
        assert dropped == scenario.requests_dropped
        assert np.mean(successes) == pytest.approx(scenario.mean_response_ms)
