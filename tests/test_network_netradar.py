"""Tests for the synthetic NetRadar dataset (Fig. 11 substrate)."""

import numpy as np
import pytest

from repro.network.netradar import (
    NETRADAR_OPERATORS,
    OperatorLatencyProfile,
    generate_netradar_dataset,
)


class TestOperatorProfiles:
    def test_paper_table_is_complete(self):
        pairs = {(p.operator, p.technology) for p in NETRADAR_OPERATORS}
        assert pairs == {
            ("alpha", "3G"), ("alpha", "LTE"),
            ("beta", "3G"), ("beta", "LTE"),
            ("gamma", "3G"), ("gamma", "LTE"),
        }

    def test_paper_reported_means(self):
        by_key = {(p.operator, p.technology): p for p in NETRADAR_OPERATORS}
        assert by_key[("alpha", "3G")].mean_ms == 128.0
        assert by_key[("beta", "3G")].mean_ms == 141.0
        assert by_key[("gamma", "LTE")].mean_ms == 42.0

    def test_lte_faster_than_3g_for_every_operator(self):
        by_key = {(p.operator, p.technology): p for p in NETRADAR_OPERATORS}
        for operator in ("alpha", "beta", "gamma"):
            assert by_key[(operator, "LTE")].mean_ms < by_key[(operator, "3G")].mean_ms

    def test_to_model_matches_profile(self):
        profile = NETRADAR_OPERATORS[0]
        model = profile.to_model()
        assert model.mean_rtt_ms() == profile.mean_ms
        assert model.median_ms == profile.median_ms


class TestGeneratedDataset:
    def test_dataset_size_and_labels(self, rng):
        dataset = generate_netradar_dataset(rng, samples_per_profile=500)
        assert len(dataset) == 500 * len(NETRADAR_OPERATORS)
        assert set(dataset.operators) == {"alpha", "beta", "gamma"}
        assert set(dataset.technologies) == {"3G", "LTE"}

    def test_select_returns_only_requested_pair(self, rng):
        dataset = generate_netradar_dataset(rng, samples_per_profile=200)
        samples = dataset.select("alpha", "LTE")
        assert samples.shape == (200,)

    def test_summary_reproduces_paper_statistics(self, rng):
        dataset = generate_netradar_dataset(rng, samples_per_profile=8000)
        summary = dataset.summary()
        for profile in NETRADAR_OPERATORS:
            measured = summary[f"{profile.operator}/{profile.technology}"]
            assert measured["mean"] == pytest.approx(profile.mean_ms, rel=0.15)
            assert measured["median"] == pytest.approx(profile.median_ms, rel=0.15)

    def test_hourly_means_cover_day(self, rng):
        dataset = generate_netradar_dataset(rng, samples_per_profile=4000)
        mask = (dataset.operator_labels == "beta") & (dataset.technology_labels == "LTE")
        assert set(np.floor(dataset.hours[mask]).astype(int).tolist()) == set(range(24))
        assert np.all(dataset.select("beta", "LTE") > 0)

    def test_invalid_sample_count(self, rng):
        with pytest.raises(ValueError):
            generate_netradar_dataset(rng, samples_per_profile=0)

    def test_custom_profiles(self, rng):
        custom = [
            OperatorLatencyProfile("delta", "LTE", mean_ms=30.0, std_ms=10.0, median_ms=25.0, paper_sample_count=10),
        ]
        dataset = generate_netradar_dataset(rng, samples_per_profile=100, profiles=custom)
        assert dataset.operators == ["delta"]
        assert len(dataset) == 100
