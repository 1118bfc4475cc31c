"""Figure 11: 3G vs LTE round-trip latency per mobile operator.

The paper analyses the NetRadar dataset (Finland, 2015) for three anonymised
operators and reports, per operator and technology, the mean, standard
deviation and median RTT plus the diurnal latency curve.  The experiment here
generates the synthetic NetRadar-style dataset and produces the same
summaries and hourly series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.network.netradar import (
    NETRADAR_OPERATORS,
    NetRadarDataset,
    generate_netradar_dataset,
)
from repro.simulation.randomness import RandomStreams


@dataclass
class NetworkLatencyResult:
    """Fig. 11 output: the synthetic dataset plus its summaries."""

    dataset: NetRadarDataset
    summary: Dict[str, Dict[str, float]]
    paper_reference: Dict[str, Dict[str, float]]

    def rows(self) -> List[Dict[str, object]]:
        """Printable rows comparing measured and paper-reported statistics."""
        rows: List[Dict[str, object]] = []
        for key in sorted(self.summary):
            measured = self.summary[key]
            reference = self.paper_reference.get(key, {})
            rows.append(
                {
                    "operator/technology": key,
                    "measured_mean_ms": round(measured["mean"], 1),
                    "paper_mean_ms": reference.get("mean"),
                    "measured_median_ms": round(measured["median"], 1),
                    "paper_median_ms": reference.get("median"),
                }
            )
        return rows


def run_fig11_network_latency(
    *, seed: int = 0, samples_per_profile: int = 5000
) -> NetworkLatencyResult:
    """Generate the synthetic NetRadar dataset and summarise it per operator."""
    streams = RandomStreams(seed)
    dataset = generate_netradar_dataset(
        streams.stream("netradar"), samples_per_profile=samples_per_profile
    )
    paper_reference = {
        f"{profile.operator}/{profile.technology}": {
            "mean": profile.mean_ms,
            "std": profile.std_ms,
            "median": profile.median_ms,
        }
        for profile in NETRADAR_OPERATORS
    }
    return NetworkLatencyResult(
        dataset=dataset,
        summary=dataset.summary(),
        paper_reference=paper_reference,
    )
