"""Figure 8b/8c: server throughput under an exponentially growing arrival rate.

The paper stresses a single t2.large instance with a request stream whose
inter-arrival rate doubles every 5 minutes from 1 Hz to 1024 Hz and observes:

* **Fig. 8b** — the average response time stays flat up to the server's
  maximum sustainable rate (32 Hz in their case study) and then degrades
  dramatically with every further doubling until the server collapses;
* **Fig. 8c** — beyond the knee an increasing share of requests is dropped
  (success vs fail percentages per arrival rate).

The reproduction runs the same doubling schedule against the simulated
t2.large server.  The duration of each rate step is configurable (the default
is shortened from the paper's 5 minutes so the experiment completes in
seconds; the shape of the curves does not depend on the step length, only on
the rate relative to the server's capacity).  The request work is chosen so
that the simulated t2.large saturates at ≈32 Hz, matching the paper's knee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog
from repro.cloud.server import CloudInstance, OffloadOutcome
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams

#: Arrival rates swept by the paper (Hz); each is double the previous one.
DEFAULT_RATES_HZ: tuple = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class SaturationResult:
    """Fig. 8b/8c output: per-rate response times and success/fail split."""

    rates_hz: List[float]
    mean_response_ms: Dict[float, float]
    success_pct: Dict[float, float]
    fail_pct: Dict[float, float]
    completed: Dict[float, int]
    dropped: Dict[float, int]
    saturation_rate_hz: float

    def knee_rate_hz(self) -> float:
        """The last rate whose mean response time stays within 3x the base rate's."""
        base = self.mean_response_ms[self.rates_hz[0]]
        knee = self.rates_hz[0]
        for rate in self.rates_hz:
            if self.mean_response_ms.get(rate, np.inf) <= 3.0 * base:
                knee = rate
        return knee

    def rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for rate in self.rates_hz:
            rows.append(
                {
                    "arrival_rate_hz": rate,
                    "mean_response_ms": round(self.mean_response_ms.get(rate, float("nan")), 1),
                    "success_pct": round(self.success_pct.get(rate, 0.0), 1),
                    "fail_pct": round(self.fail_pct.get(rate, 0.0), 1),
                }
            )
        rows.append({"analytic_saturation_rate_hz": round(self.saturation_rate_hz, 1)})
        return rows


def run_fig8_saturation(
    *,
    seed: int = 0,
    catalog: Optional[InstanceCatalog] = None,
    instance_type_name: str = "t2.large",
    rates_hz: Sequence[float] = DEFAULT_RATES_HZ,
    step_duration_s: float = 10.0,
    work_units: Optional[float] = None,
    knee_rate_hz: float = 32.0,
    admission_limit: int = 320,
    max_requests_per_step: int = 2000,
    drain_s: float = 30.0,
) -> SaturationResult:
    """Stress one instance with a doubling arrival rate and measure the collapse.

    Parameters
    ----------
    step_duration_s:
        Wall-clock (simulated) seconds per arrival rate.  The paper uses 300 s
        (5 minutes); 10 s preserves the shape while keeping the event count
        small.
    work_units:
        Work per request.  When omitted it is derived from the instance's
        profile so the server saturates at exactly ``knee_rate_hz`` (32 Hz by
        default, the paper's knee for its t2.large case study).
    admission_limit:
        Maximum simultaneous requests the instance admits; arrivals beyond it
        are dropped (the Fig. 8c failures).
    max_requests_per_step:
        Safety cap on the number of arrivals generated for a single rate step
        (beyond saturation extra arrivals only add identical drops).
    """
    if not (math.isfinite(step_duration_s) and step_duration_s > 0):
        raise ValueError(f"step_duration_s must be positive and finite, got {step_duration_s}")
    catalog = catalog if catalog is not None else DEFAULT_CATALOG
    instance_type = catalog.get(instance_type_name)
    if work_units is None:
        # Choose the request size so the server's sustainable throughput is
        # exactly the target knee rate.
        profile = instance_type.profile
        work_units = 1000.0 * profile.speed_factor * profile.effective_cores / knee_rate_hz
    streams = RandomStreams(seed)
    saturation_rate = instance_type.profile.max_throughput_per_second(work_units)

    mean_response: Dict[float, float] = {}
    success_pct: Dict[float, float] = {}
    fail_pct: Dict[float, float] = {}
    completed_by_rate: Dict[float, int] = {}
    dropped_by_rate: Dict[float, int] = {}

    for rate in rates_hz:
        # Each rate step runs against a fresh instance so the steps are
        # independent measurements (the paper's server also drains between
        # configurations thanks to the cool-down interval).
        engine = SimulationEngine()
        instance = CloudInstance(engine, instance_type, admission_limit=admission_limit)
        response_times: List[float] = []
        dropped = 0

        def _on_complete(outcome: OffloadOutcome) -> None:
            response_times.append(outcome.execution_time_ms)

        arrivals = int(min(rate * step_duration_s, max_requests_per_step))
        gap_ms = 1000.0 / rate
        # One service-jitter draw per arrival, admitted or not.
        rng = streams.stream(f"fig8-{instance_type_name}-{rate}")
        jitter_z = rng.standard_normal(arrivals)
        for index in range(arrivals):

            def _submit(z: float = float(jitter_z[index])) -> None:
                nonlocal dropped
                outcome = instance.submit(work_units, _on_complete, z)
                if outcome is not None:
                    dropped += 1

            engine.schedule_at(index * gap_ms, _submit, label=f"fig8:arrival{index}")
        # Let the server drain after the arrivals stop so in-flight requests
        # complete and are measured.
        engine.run(until_ms=arrivals * gap_ms + drain_s * 1000.0)

        total = len(response_times) + dropped
        completed_by_rate[rate] = len(response_times)
        dropped_by_rate[rate] = dropped
        if response_times:
            mean_response[rate] = float(np.mean(response_times))
        else:
            mean_response[rate] = float("inf")
        if total > 0:
            success_pct[rate] = 100.0 * len(response_times) / total
            fail_pct[rate] = 100.0 * dropped / total
        else:
            success_pct[rate] = 0.0
            fail_pct[rate] = 0.0

    return SaturationResult(
        rates_hz=[float(rate) for rate in rates_hz],
        mean_response_ms=mean_response,
        success_pct=success_pct,
        fail_pct=fail_pct,
        completed=completed_by_rate,
        dropped=dropped_by_rate,
        saturation_rate_hz=float(saturation_rate),
    )
