"""Experiment runners: one module per evaluation figure of the paper.

Every function here regenerates the data behind one figure (or a group of
related figures) of the paper's evaluation section, returning plain result
objects with the plotted series and the headline numbers.  The benchmark
suite under ``benchmarks/`` wraps these runners with ``pytest-benchmark`` and
prints the same rows the paper reports, and :mod:`repro.experiments.summary`
compares the headline numbers with the paper's.

============================  ==========================================================
Module                        Figures
============================  ==========================================================
``figures_characterization``  Fig. 4 (per-type degradation), Fig. 5 (acceleration
                              ratios), Fig. 6 (nano/micro anomaly), Fig. 7c (per-level
                              standard deviation)
``figure_decomposition``      Fig. 7a/7b (T1 + T2 + T_cloud decomposition per level)
``figure_sdn_overhead``       Fig. 8a (≈150 ms routing overhead per group)
``figure_saturation``         Fig. 8b/8c (t2.large under doubling arrival rates)
``figure_dynamic``            Fig. 9b/9c and Fig. 10b/10c (8-hour, 100-user dynamic
                              acceleration experiment: an unregistered scenario
                              spec run on the scenario runner's event executor)
``figure_prediction``         Fig. 10a (prediction accuracy vs history size, 10-fold CV)
``figure_network``            Fig. 11 (3G/LTE RTT per operator)
============================  ==========================================================
"""

from repro.experiments.figures_characterization import (
    AccelerationRatioResult,
    CharacterizationResult,
    run_fig4_characterization,
    run_fig5_acceleration_ratios,
    run_fig6_nano_micro_anomaly,
    run_fig7c_level_stability,
)
from repro.experiments.figure_decomposition import DecompositionResult, run_fig7_decomposition
from repro.experiments.figure_dynamic import DynamicAccelerationResult, run_dynamic_acceleration
from repro.experiments.figure_network import NetworkLatencyResult, run_fig11_network_latency
from repro.experiments.figure_prediction import (
    PredictionAccuracyResult,
    run_fig10a_prediction_accuracy,
    synthesize_slot_history,
)
from repro.experiments.figure_saturation import SaturationResult, run_fig8_saturation
from repro.experiments.figure_sdn_overhead import SdnOverheadResult, run_fig8a_sdn_overhead
from repro.experiments.summary import build_reproduction_summary, measure_headlines

__all__ = [
    "AccelerationRatioResult",
    "CharacterizationResult",
    "DecompositionResult",
    "DynamicAccelerationResult",
    "NetworkLatencyResult",
    "PredictionAccuracyResult",
    "SaturationResult",
    "SdnOverheadResult",
    "build_reproduction_summary",
    "measure_headlines",
    "run_dynamic_acceleration",
    "run_fig10a_prediction_accuracy",
    "run_fig11_network_latency",
    "run_fig4_characterization",
    "run_fig5_acceleration_ratios",
    "run_fig6_nano_micro_anomaly",
    "run_fig7_decomposition",
    "run_fig7c_level_stability",
    "run_fig8_saturation",
    "run_fig8a_sdn_overhead",
    "synthesize_slot_history",
]
