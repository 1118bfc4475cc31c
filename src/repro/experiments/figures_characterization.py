"""Figures 4, 5, 6 and 7c: instance benchmarking and acceleration levels.

* **Fig. 4** — response time vs number of concurrent users (1–100) for each
  instance type; the degradation slope decreases with instance size and the
  types fall into three acceleration groups (plus level 0 for the anomalous
  t2.micro).
* **Fig. 5** — with a static minimax workload, level 2 executes the task
  ≈1.25× faster than level 1, level 3 ≈1.73× faster than level 1 and ≈1.36×
  faster than level 2.
* **Fig. 6** — the t2.nano/t2.micro anomaly: the nano instance outperforms
  the nominally larger (free-tier) micro instance under load.
* **Fig. 7c** — response-time standard deviation per acceleration level
  (including level 4 = c4.8xlarge) across the concurrency sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.characterization import (
    DEFAULT_CONCURRENCY_SWEEP,
    BenchmarkResult,
    benchmark_catalog,
    measured_capacities,
    measured_speed_factors,
)
from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog
from repro.core.acceleration import AccelerationLevelCharacterization, characterize_instances
from repro.mobile.tasks import DEFAULT_TASK_POOL, TaskPool
from repro.simulation.randomness import RandomStreams

#: Instance types shown in Fig. 4 of the paper (panels a–f).
FIG4_INSTANCE_TYPES = (
    "t2.nano",
    "t2.micro",
    "t2.small",
    "t2.medium",
    "t2.large",
    "m4.10xlarge",
)

#: Representative instance type per acceleration level for Fig. 5 / Fig. 7c.
LEVEL_REPRESENTATIVES = {
    1: "t2.nano",
    2: "t2.large",
    3: "m4.10xlarge",
    4: "c4.8xlarge",
}


@dataclass
class CharacterizationResult:
    """Fig. 4 / Fig. 6 output: per-type benchmark curves plus the grouping."""

    benchmarks: Dict[str, BenchmarkResult]
    characterization: AccelerationLevelCharacterization
    response_threshold_ms: float

    def mean_curve(self, type_name: str) -> Dict[int, float]:
        """Concurrency -> mean response time for one type (a Fig. 4 panel)."""
        return self.benchmarks[type_name].mean_response_ms()

    def degradation_slopes(self) -> Dict[str, float]:
        """Response-time growth per added user, per type."""
        return {name: result.degradation_slope() for name, result in self.benchmarks.items()}

    def level_map(self) -> Dict[str, int]:
        """Instance type -> characterised acceleration level."""
        return self.characterization.as_level_map()

    def rows(self) -> List[Dict[str, object]]:
        """Printable rows: one per (type, concurrency) with the mean/std."""
        rows: List[Dict[str, object]] = []
        levels = self.level_map()
        for name, result in self.benchmarks.items():
            for concurrency, summary in zip(result.concurrencies, result.summaries):
                rows.append(
                    {
                        "instance_type": name,
                        "acceleration_level": levels.get(name),
                        "concurrent_users": concurrency,
                        "mean_response_ms": round(summary["mean"], 1),
                        "std_response_ms": round(summary["std"], 1),
                        "p95_response_ms": round(summary["p95"], 1),
                    }
                )
        return rows


def run_fig4_characterization(
    *,
    seed: int = 0,
    catalog: Optional[InstanceCatalog] = None,
    task_pool: Optional[TaskPool] = None,
    type_names: Sequence[str] = FIG4_INSTANCE_TYPES,
    concurrencies: Sequence[int] = DEFAULT_CONCURRENCY_SWEEP,
    samples_per_level: int = 200,
    response_threshold_ms: float = 1000.0,
) -> CharacterizationResult:
    """Benchmark the Fig. 4 instance types and characterise them into levels."""
    catalog = catalog if catalog is not None else DEFAULT_CATALOG
    streams = RandomStreams(seed)
    benchmarks = benchmark_catalog(
        catalog,
        rng=streams.stream("fig4-benchmark"),
        task_pool=task_pool if task_pool is not None else DEFAULT_TASK_POOL,
        concurrencies=concurrencies,
        samples_per_level=samples_per_level,
        type_names=list(type_names),
    )
    capacities = measured_capacities(benchmarks, response_threshold_ms)
    speeds = measured_speed_factors(benchmarks)
    subset = catalog.subset(list(type_names))
    characterization = characterize_instances(
        subset,
        work_units=DEFAULT_TASK_POOL.mean_work_units(),
        response_threshold_ms=response_threshold_ms,
        measured_capacities=capacities,
        measured_speed_factors=speeds,
    )
    return CharacterizationResult(
        benchmarks=benchmarks,
        characterization=characterization,
        response_threshold_ms=response_threshold_ms,
    )


@dataclass
class AccelerationRatioResult:
    """Fig. 5 output: static-minimax response times and level-to-level ratios."""

    mean_response_by_level: Dict[int, float]
    curves_by_level: Dict[int, Dict[int, float]]
    ratios: Dict[str, float]

    def rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for level, mean in sorted(self.mean_response_by_level.items()):
            rows.append(
                {
                    "acceleration_level": level,
                    "mean_response_ms": round(mean, 1),
                }
            )
        for comparison, ratio in sorted(self.ratios.items()):
            rows.append({"comparison": comparison, "speedup": round(ratio, 2)})
        return rows


def run_fig5_acceleration_ratios(
    *,
    seed: int = 0,
    catalog: Optional[InstanceCatalog] = None,
    levels: Optional[Dict[int, str]] = None,
    concurrencies: Sequence[int] = DEFAULT_CONCURRENCY_SWEEP,
    samples_per_level: int = 200,
) -> AccelerationRatioResult:
    """Measure the acceleration ratios between levels with a static minimax load."""
    catalog = catalog if catalog is not None else DEFAULT_CATALOG
    representatives = dict(levels) if levels is not None else {
        level: name for level, name in LEVEL_REPRESENTATIVES.items() if level <= 3
    }
    streams = RandomStreams(seed)
    benchmarks = benchmark_catalog(
        catalog,
        rng=streams.stream("fig5-benchmark"),
        fixed_task="minimax",
        concurrencies=concurrencies,
        samples_per_level=samples_per_level,
        type_names=list(representatives.values()),
    )
    mean_by_level: Dict[int, float] = {}
    curves: Dict[int, Dict[int, float]] = {}
    for level, type_name in representatives.items():
        result = benchmarks[type_name]
        curves[level] = result.mean_response_ms()
        # The Fig. 5 ratio statement refers to how fast a single task executes
        # on each level, so the single-user (concurrency 1) mean is the basis.
        mean_by_level[level] = curves[level][min(result.concurrencies)]
    ratios: Dict[str, float] = {}
    ordered = sorted(mean_by_level)
    for slower, faster in [(ordered[0], level) for level in ordered[1:]] + (
        [(ordered[1], ordered[2])] if len(ordered) >= 3 else []
    ):
        ratios[f"level{faster}_vs_level{slower}"] = (
            mean_by_level[slower] / mean_by_level[faster]
        )
    return AccelerationRatioResult(
        mean_response_by_level=mean_by_level,
        curves_by_level=curves,
        ratios=ratios,
    )


def run_fig6_nano_micro_anomaly(
    *,
    seed: int = 0,
    catalog: Optional[InstanceCatalog] = None,
    concurrencies: Sequence[int] = DEFAULT_CONCURRENCY_SWEEP,
    samples_per_level: int = 200,
) -> CharacterizationResult:
    """Benchmark only t2.nano and t2.micro to exhibit the Fig. 6 anomaly."""
    return run_fig4_characterization(
        seed=seed,
        catalog=catalog,
        type_names=("t2.nano", "t2.micro"),
        concurrencies=concurrencies,
        samples_per_level=samples_per_level,
    )


def run_fig7c_level_stability(
    *,
    seed: int = 0,
    catalog: Optional[InstanceCatalog] = None,
    concurrencies: Sequence[int] = DEFAULT_CONCURRENCY_SWEEP,
    samples_per_level: int = 200,
) -> Dict[int, Dict[int, float]]:
    """Fig. 7c: response-time standard deviation per acceleration level.

    Returns ``{level: {concurrency: std_ms}}`` for levels 1–4 (the paper adds
    the c4.8xlarge instance as level 4 in this figure).
    """
    catalog = catalog if catalog is not None else DEFAULT_CATALOG
    streams = RandomStreams(seed)
    benchmarks = benchmark_catalog(
        catalog,
        rng=streams.stream("fig7c-benchmark"),
        fixed_task="minimax",
        concurrencies=concurrencies,
        samples_per_level=samples_per_level,
        type_names=list(LEVEL_REPRESENTATIVES.values()),
    )
    stds: Dict[int, Dict[int, float]] = {}
    for level, type_name in LEVEL_REPRESENTATIVES.items():
        stds[level] = benchmarks[type_name].std_response_ms()
    return stds
