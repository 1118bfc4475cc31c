"""Analysis utilities.

* :mod:`repro.analysis.characterization` — the simulated counterpart of the
  paper's instance benchmarking (Section VI-A): stress each instance type
  with 1–100 concurrent users, collect response-time distributions, derive
  capacities and acceleration-level groupings.
* :mod:`repro.analysis.crossval` — k-fold cross-validation of the workload
  predictor and the accuracy-vs-history-size curve of Fig. 10a.
* :mod:`repro.analysis.metrics` — summary metrics shared by the experiments
  (speed-up ratios, federation and per-group roll-ups, routing shares).
"""

from repro.analysis.characterization import (
    BenchmarkResult,
    benchmark_catalog,
    benchmark_instance_type,
    measured_capacities,
)
from repro.analysis.crossval import (
    CrossValidationResult,
    accuracy_vs_history_size,
    cross_validate_predictor,
)
from repro.analysis.reporting import format_table, summarize_comparison, write_csv

__all__ = [
    "BenchmarkResult",
    "CrossValidationResult",
    "accuracy_vs_history_size",
    "benchmark_catalog",
    "benchmark_instance_type",
    "cross_validate_predictor",
    "format_table",
    "measured_capacities",
    "summarize_comparison",
    "write_csv",
]
