"""One-shot reproduction summary: every headline number, paper vs measured.

:func:`build_reproduction_summary` runs the fast experiments behind the
paper's headline claims and returns comparison rows (metric, paper value,
measured value, relative deviation).  Every experiment in it runs in a few
seconds or less, so the summary can be used in CI and from the CLI
(``repro-accel summary``).  Fig. 10b/10c have no row: the paper gives no
numeric value for them.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis.reporting import summarize_comparison
from repro.experiments.figure_dynamic import run_dynamic_acceleration
from repro.experiments.figure_network import run_fig11_network_latency
from repro.experiments.figure_prediction import run_fig10a_prediction_accuracy
from repro.experiments.figure_saturation import run_fig8_saturation
from repro.experiments.figure_sdn_overhead import run_fig8a_sdn_overhead
from repro.experiments.figures_characterization import (
    run_fig4_characterization,
    run_fig5_acceleration_ratios,
)

#: The paper-reported values the summary compares against.
PAPER_HEADLINES: Dict[str, float] = {
    "fig5: level2 vs level1 speedup": 1.25,
    "fig5: level3 vs level1 speedup": 1.73,
    "fig5: level3 vs level2 speedup": 1.36,
    "fig8a: SDN routing overhead [ms]": 150.0,
    "fig8b: t2.large saturation rate [Hz]": 32.0,
    "fig9b: never-promoted user mean response [ms]": 2500.0,
    "fig10a: prediction accuracy [%]": 87.5,
    "fig11: alpha LTE mean RTT [ms]": 41.0,
    "fig11: beta LTE mean RTT [ms]": 36.0,
    "fig11: gamma LTE mean RTT [ms]": 42.0,
    "fig11: alpha 3G mean RTT [ms]": 128.0,
    "fig11: beta 3G mean RTT [ms]": 141.0,
    "fig11: gamma 3G mean RTT [ms]": 137.0,
    "fig4: acceleration groups found": 4.0,
}


def measure_headlines(*, seed: int = 0, samples_per_level: int = 150) -> Dict[str, float]:
    """Measure every headline quantity with the given seed."""
    measured: Dict[str, float] = {}

    fig5 = run_fig5_acceleration_ratios(seed=seed, samples_per_level=samples_per_level)
    measured["fig5: level2 vs level1 speedup"] = fig5.ratios["level2_vs_level1"]
    measured["fig5: level3 vs level1 speedup"] = fig5.ratios["level3_vs_level1"]
    measured["fig5: level3 vs level2 speedup"] = fig5.ratios["level3_vs_level2"]

    fig8a = run_fig8a_sdn_overhead(seed=seed, requests_per_group=150)
    measured["fig8a: SDN routing overhead [ms]"] = fig8a.overall_mean_ms

    fig8 = run_fig8_saturation(seed=seed, step_duration_s=5.0, max_requests_per_step=600)
    measured["fig8b: t2.large saturation rate [Hz]"] = fig8.saturation_rate_hz

    dynamic = run_dynamic_acceleration(seed=seed)
    stable = dynamic.user_series(dynamic.stable_user())
    measured["fig9b: never-promoted user mean response [ms]"] = float(
        np.mean([point["response_time_ms"] for point in stable])
    )

    fig10a = run_fig10a_prediction_accuracy(seed=seed)
    measured["fig10a: prediction accuracy [%]"] = fig10a.cross_validation.mean_accuracy_pct

    fig11 = run_fig11_network_latency(seed=seed, samples_per_profile=4000)
    for operator in ("alpha", "beta", "gamma"):
        measured[f"fig11: {operator} LTE mean RTT [ms]"] = fig11.summary[f"{operator}/LTE"]["mean"]
        measured[f"fig11: {operator} 3G mean RTT [ms]"] = fig11.summary[f"{operator}/3G"]["mean"]

    fig4 = run_fig4_characterization(seed=seed, samples_per_level=samples_per_level)
    measured["fig4: acceleration groups found"] = float(fig4.characterization.group_count)

    return measured


def build_reproduction_summary(*, seed: int = 0, samples_per_level: int = 150) -> List[Dict[str, object]]:
    """Paper-vs-measured rows for every headline quantity."""
    measured = measure_headlines(seed=seed, samples_per_level=samples_per_level)
    rows = summarize_comparison(PAPER_HEADLINES, measured)
    # Round the measured values for readable output.
    for row in rows:
        row["measured"] = round(float(row["measured"]), 2)
    return rows
