"""Synthetic NetRadar-style cellular latency dataset (Fig. 11).

The paper analyses the NetRadar dataset (Finland, 2015) to establish that both
3G and LTE provide low enough latency for offloading, reporting per-operator
RTT statistics for three anonymised operators α, β and γ:

=========  =====================================  =====================================
Operator   3G (mean / SD / median, ms)            LTE (mean / SD / median, ms)
=========  =====================================  =====================================
α          128 / 362 / 51                         41 / 56 / 34
β          141 / 376 / 60                         36 / 70 / 25
γ          137 / 379 / 56                         42 / 84 / 27
=========  =====================================  =====================================

along with the sample counts per operator and technology.  The real dataset is
proprietary, so this module generates a synthetic equivalent: per-operator
log-normal RTT samples with a diurnal modulation, timestamped uniformly over a
day, with sample counts scaled down from the paper's (configurable).  The
statistics of the synthetic samples reproduce the table above, which is all
Fig. 11 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.network.latency import LogNormalLatencyModel


@dataclass(frozen=True)
class OperatorLatencyProfile:
    """Reported latency statistics of one operator for one technology."""

    operator: str
    technology: str
    mean_ms: float
    std_ms: float
    median_ms: float
    paper_sample_count: int

    def to_model(self) -> LogNormalLatencyModel:
        """Build the log-normal sampling model matching mean and median."""
        return LogNormalLatencyModel(
            median_ms=self.median_ms,
            mean_ms=self.mean_ms,
            floor_ms=5.0 if self.technology == "LTE" else 10.0,
        )


#: The per-operator statistics reported in Section VI-C4 of the paper.
NETRADAR_OPERATORS: List[OperatorLatencyProfile] = [
    OperatorLatencyProfile("alpha", "3G", mean_ms=128.0, std_ms=362.0, median_ms=51.0, paper_sample_count=205762),
    OperatorLatencyProfile("alpha", "LTE", mean_ms=41.0, std_ms=56.0, median_ms=34.0, paper_sample_count=182549),
    OperatorLatencyProfile("beta", "3G", mean_ms=141.0, std_ms=376.0, median_ms=60.0, paper_sample_count=448942),
    OperatorLatencyProfile("beta", "LTE", mean_ms=36.0, std_ms=70.0, median_ms=25.0, paper_sample_count=493956),
    OperatorLatencyProfile("gamma", "3G", mean_ms=137.0, std_ms=379.0, median_ms=56.0, paper_sample_count=191973),
    OperatorLatencyProfile("gamma", "LTE", mean_ms=42.0, std_ms=84.0, median_ms=27.0, paper_sample_count=152605),
]


@dataclass
class NetRadarDataset:
    """A collection of synthetic (operator, technology, hour, rtt) samples."""

    operators: List[str]
    technologies: List[str]
    hours: np.ndarray
    rtts_ms: np.ndarray
    operator_labels: np.ndarray
    technology_labels: np.ndarray

    def __len__(self) -> int:
        return int(self.rtts_ms.size)

    def select(self, operator: str, technology: str) -> np.ndarray:
        """RTT samples for one (operator, technology) pair."""
        mask = (self.operator_labels == operator) & (self.technology_labels == technology)
        return self.rtts_ms[mask]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per (operator, technology) mean/std/median of the synthetic samples."""
        result: Dict[str, Dict[str, float]] = {}
        for operator in self.operators:
            for technology in self.technologies:
                samples = self.select(operator, technology)
                if samples.size == 0:
                    continue
                result[f"{operator}/{technology}"] = {
                    "mean": float(np.mean(samples)),
                    "std": float(np.std(samples)),
                    "median": float(np.median(samples)),
                    "count": float(samples.size),
                }
        return result


def generate_netradar_dataset(
    rng: np.random.Generator,
    *,
    samples_per_profile: int = 5000,
    profiles: Sequence[OperatorLatencyProfile] = tuple(NETRADAR_OPERATORS),
) -> NetRadarDataset:
    """Generate a synthetic NetRadar-style dataset.

    Parameters
    ----------
    rng:
        Random generator (use a named stream from
        :class:`~repro.simulation.randomness.RandomStreams`).
    samples_per_profile:
        Number of samples to draw per (operator, technology) pair.  The
        paper's counts (hundreds of thousands) are scaled down by default; the
        statistics converge well before that.
    profiles:
        The latency profiles to sample from; defaults to the paper's table.
    """
    if samples_per_profile < 1:
        raise ValueError(f"samples_per_profile must be >= 1, got {samples_per_profile}")
    all_hours: List[np.ndarray] = []
    all_rtts: List[np.ndarray] = []
    all_ops: List[np.ndarray] = []
    all_tech: List[np.ndarray] = []
    for profile in profiles:
        model = profile.to_model()
        hours = rng.uniform(0.0, 24.0, size=samples_per_profile)
        rtts = np.array(
            [model.sample_rtt_ms(rng, hour_of_day=hour) for hour in hours], dtype=float
        )
        all_hours.append(hours)
        all_rtts.append(rtts)
        all_ops.append(np.full(samples_per_profile, profile.operator, dtype=object))
        all_tech.append(np.full(samples_per_profile, profile.technology, dtype=object))
    operators = sorted({profile.operator for profile in profiles})
    technologies = sorted({profile.technology for profile in profiles})
    return NetRadarDataset(
        operators=operators,
        technologies=technologies,
        hours=np.concatenate(all_hours),
        rtts_ms=np.concatenate(all_rtts),
        operator_labels=np.concatenate(all_ops),
        technology_labels=np.concatenate(all_tech),
    )
