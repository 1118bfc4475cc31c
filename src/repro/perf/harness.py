"""Benchmark harness: timed records, ``BENCH_<label>.json`` and comparison.

The perf subsystem makes speedups *measurable*: every benchmark produces a
:class:`BenchRecord` (wall time, operation count, throughput), a run bundles
them into a :class:`BenchReport` written as ``BENCH_<label>.json``, and
:func:`compare_reports` fails when a metric regresses beyond a threshold —
the contract enforced by the ``repro-accel bench compare`` CLI and the CI
bench smoke job.
"""

from __future__ import annotations

import json
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

#: Default regression threshold: fail when throughput drops by more than 20%.
DEFAULT_REGRESSION_THRESHOLD = 0.20


def peak_rss_kb() -> int:
    """Peak resident set size in kilobytes, across this process and its children.

    Campaign pools allocate in child processes, so the
    parent's ``RUSAGE_SELF`` alone under-reports any multiprocessing
    benchmark; the reported peak is the max of the two rusage domains
    (``RUSAGE_CHILDREN`` folds in terminated, waited-for children).
    """
    peaks = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ]
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    if platform.system() == "Darwin":
        return int(max(peaks) // 1024)
    return int(max(peaks))


@dataclass(frozen=True)
class BenchRecord:
    """One timed benchmark: a name, a wall time and an operation count."""

    name: str
    wall_s: float
    ops: float
    extras: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark name must be non-empty")
        if self.wall_s <= 0:
            raise ValueError(f"wall_s must be positive, got {self.wall_s}")
        if self.ops < 0:
            raise ValueError(f"ops must be >= 0, got {self.ops}")

    @property
    def ops_per_s(self) -> float:
        """Throughput: operations per wall-clock second."""
        return self.ops / self.wall_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "ops": self.ops,
            "ops_per_s": self.ops_per_s,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "BenchRecord":
        return cls(
            name=str(payload["name"]),
            wall_s=float(payload["wall_s"]),
            ops=float(payload["ops"]),
            extras={k: float(v) for k, v in dict(payload.get("extras", {})).items()},
        )


def timed(name: str, func: Callable[[], float], **extras: float) -> BenchRecord:
    """Run ``func`` under the wall clock; it returns the operation count."""
    started = time.perf_counter()
    ops = float(func())
    elapsed = time.perf_counter() - started
    return BenchRecord(name=name, wall_s=elapsed, ops=ops, extras=dict(extras))


@dataclass
class BenchReport:
    """One benchmark run: environment fingerprint plus its records."""

    label: str
    suite: str
    budget: str
    seed: int
    records: List[BenchRecord] = field(default_factory=list)
    python_version: str = field(default_factory=platform.python_version)
    numpy_version: str = np.__version__
    peak_rss_kb: int = 0

    def finalize(self) -> "BenchReport":
        """Stamp the process's peak RSS after all benchmarks ran."""
        self.peak_rss_kb = peak_rss_kb()
        return self

    def record_by_name(self, name: str) -> Optional[BenchRecord]:
        for record in self.records:
            if record.name == name:
                return record
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "suite": self.suite,
            "budget": self.budget,
            "seed": self.seed,
            "python_version": self.python_version,
            "numpy_version": self.numpy_version,
            "peak_rss_kb": self.peak_rss_kb,
            "records": [record.as_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "BenchReport":
        report = cls(
            label=str(payload["label"]),
            suite=str(payload.get("suite", "all")),
            budget=str(payload.get("budget", "full")),
            seed=int(payload.get("seed", 0)),
            records=[BenchRecord.from_dict(r) for r in payload.get("records", [])],
        )
        report.python_version = str(payload.get("python_version", ""))
        report.numpy_version = str(payload.get("numpy_version", ""))
        report.peak_rss_kb = int(payload.get("peak_rss_kb", 0))
        return report

    # -- persistence ---------------------------------------------------------

    def path_for(self, output_dir: "str | Path" = ".") -> Path:
        return Path(output_dir) / f"BENCH_{self.label}.json"

    def write(self, output_dir: "str | Path" = ".") -> Path:
        path = self.path_for(output_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "BenchReport":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class Comparison:
    """One baseline-vs-current throughput comparison."""

    name: str
    baseline_ops_per_s: float
    current_ops_per_s: float

    @property
    def ratio(self) -> float:
        """current / baseline throughput (>1 is faster)."""
        if self.baseline_ops_per_s == 0:
            return float("inf")
        return self.current_ops_per_s / self.baseline_ops_per_s

    def regressed(self, threshold: float = DEFAULT_REGRESSION_THRESHOLD) -> bool:
        return self.ratio < 1.0 - threshold


def compare_reports(
    baseline: BenchReport,
    current: BenchReport,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> "tuple[List[Comparison], List[Comparison], List[str]]":
    """Compare matching records; returns ``(comparisons, regressions, missing)``.

    Records are matched by name.  ``missing`` lists baseline benchmarks
    absent from the current report — an unmeasured benchmark must fail the
    gate, not pass it silently (a benchmark that crashes out of a run would
    otherwise never flag).  Benchmarks only present in the *current* report
    are ignored: adding a benchmark must not fail the comparison.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    comparisons: List[Comparison] = []
    regressions: List[Comparison] = []
    missing: List[str] = []
    for record in baseline.records:
        matching = current.record_by_name(record.name)
        if matching is None:
            missing.append(record.name)
            continue
        comparison = Comparison(
            name=record.name,
            baseline_ops_per_s=record.ops_per_s,
            current_ops_per_s=matching.ops_per_s,
        )
        comparisons.append(comparison)
        if comparison.regressed(threshold):
            regressions.append(comparison)
    return comparisons, regressions, missing
