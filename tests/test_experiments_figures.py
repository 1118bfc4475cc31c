"""Tests for the Fig. 7a/7b, Fig. 8 and Fig. 11 experiment runners."""

import numpy as np
import pytest

from repro.experiments.figure_decomposition import run_fig7_decomposition
from repro.experiments.figure_network import run_fig11_network_latency
from repro.experiments.figure_saturation import run_fig8_saturation
from repro.experiments.figure_sdn_overhead import run_fig8a_sdn_overhead


@pytest.fixture(scope="module")
def decomposition():
    return run_fig7_decomposition(seed=0, rounds=3)


class TestFig7Decomposition:
    def test_all_four_levels_measured(self, decomposition):
        assert set(decomposition.component_means_ms) == {1, 2, 3, 4}

    def test_cloud_time_dominates_every_level(self, decomposition):
        """Fig. 7b: T_cloud is the most time-consuming component."""
        for level, components in decomposition.component_means_ms.items():
            assert components["Tcloud"] > components["T1"]
            assert components["Tcloud"] > components["T2"]
            assert components["Tcloud"] > components["routing"]

    def test_cloud_time_decreases_with_acceleration_level(self, decomposition):
        cloud = [decomposition.cloud_time_ms(level) for level in (1, 2, 3, 4)]
        assert cloud == sorted(cloud, reverse=True)

    def test_communication_time_under_one_second(self, decomposition):
        """Fig. 7b: the total communication time T1 + T2 is less than a second."""
        for level in (1, 2, 3, 4):
            assert decomposition.communication_time_ms(level) < 1000.0

    def test_routing_overhead_about_150ms(self, decomposition):
        for components in decomposition.component_means_ms.values():
            assert components["routing"] == pytest.approx(150.0, rel=0.15)

    def test_rows_per_level(self, decomposition):
        assert len(decomposition.rows()) == 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            run_fig7_decomposition(concurrent_users=0)
        with pytest.raises(ValueError):
            run_fig7_decomposition(rounds=0)


class TestFig8aSdnOverhead:
    @pytest.fixture(scope="class")
    def overhead(self):
        return run_fig8a_sdn_overhead(seed=0, requests_per_group=120)

    def test_overall_mean_is_about_150ms(self, overhead):
        assert overhead.overall_mean_ms == pytest.approx(150.0, rel=0.1)

    def test_every_group_has_similar_overhead(self, overhead):
        means = overhead.mean_by_group()
        assert set(means) == {1, 2, 3, 4}
        for mean in means.values():
            assert mean == pytest.approx(150.0, rel=0.15)

    def test_sample_counts_match_request_count(self, overhead):
        for samples in overhead.routing_samples_ms.values():
            assert len(samples) == 120

    def test_rows(self, overhead):
        assert len(overhead.rows()) == 5

    def test_invalid_request_count(self):
        with pytest.raises(ValueError):
            run_fig8a_sdn_overhead(requests_per_group=0)


class TestFig8Saturation:
    @pytest.fixture(scope="class")
    def saturation(self):
        return run_fig8_saturation(seed=0, step_duration_s=6.0, max_requests_per_step=800)

    def test_sweep_matches_paper_rates(self, saturation):
        assert saturation.rates_hz == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]

    def test_knee_is_at_32hz(self, saturation):
        """The simulated t2.large saturates at the paper's 32 Hz."""
        assert saturation.saturation_rate_hz == pytest.approx(32.0, rel=0.05)

    def test_response_time_flat_before_knee_and_collapses_after(self, saturation):
        base = saturation.mean_response_ms[1]
        assert saturation.mean_response_ms[16] < 2.0 * base
        assert saturation.mean_response_ms[128] > 5.0 * base

    def test_no_drops_below_knee_and_growing_drops_beyond(self, saturation):
        """Fig. 8c: beyond 32 Hz an increasing amount of requests is dropped."""
        assert saturation.fail_pct[16] == 0.0
        assert saturation.fail_pct[32] <= 5.0
        assert saturation.fail_pct[256] > saturation.fail_pct[64] > 0.0

    def test_success_and_fail_sum_to_100(self, saturation):
        for rate in saturation.rates_hz:
            assert saturation.success_pct[rate] + saturation.fail_pct[rate] == pytest.approx(100.0)

    def test_rows_length(self, saturation):
        assert len(saturation.rows()) == len(saturation.rates_hz) + 1

    def test_invalid_step_duration(self):
        with pytest.raises(ValueError):
            run_fig8_saturation(step_duration_s=0.0)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_non_finite_step_duration_rejected(self, step):
        with pytest.raises(ValueError, match="step_duration_s must be positive and finite"):
            run_fig8_saturation(step_duration_s=step)


class TestFig11Network:
    @pytest.fixture(scope="class")
    def network(self):
        return run_fig11_network_latency(seed=0, samples_per_profile=4000)

    def test_summary_covers_all_operator_technology_pairs(self, network):
        assert len(network.summary) == 6

    def test_measured_means_match_paper(self, network):
        """Measured 3G/LTE means land near the paper's reported values."""
        for key, reference in network.paper_reference.items():
            measured = network.summary[key]
            assert measured["mean"] == pytest.approx(reference["mean"], rel=0.15), key
            assert measured["median"] == pytest.approx(reference["median"], rel=0.15), key

    def test_lte_faster_than_3g_for_every_operator(self, network):
        for operator in ("alpha", "beta", "gamma"):
            assert network.summary[f"{operator}/LTE"]["mean"] < network.summary[f"{operator}/3G"]["mean"]

    def test_hourly_series_has_diurnal_variation(self, network):
        data = network.dataset
        mask = (data.operator_labels == "alpha") & (data.technology_labels == "3G")
        hours = np.floor(data.hours[mask]).astype(int)
        rtts = data.rtts_ms[mask]
        values = [rtts[hours == hour].mean() for hour in range(24) if np.any(hours == hour)]
        assert max(values) > min(values)

    def test_rows_compare_measured_and_paper(self, network):
        rows = network.rows()
        assert len(rows) == 6
        assert {"measured_mean_ms", "paper_mean_ms"} <= set(rows[0])
