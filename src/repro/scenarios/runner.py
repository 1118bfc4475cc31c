"""The scenario entry point, its result types and the spec-to-workload helpers.

:func:`run_scenario` is the one runner for every spec.  The paper's system is
one SDN front-end with an autoscaled back-end per cloud; a scenario runs it
over N >= 1 such sites (:mod:`repro.multisite.runner`).  A spec without a
``sites:`` section is the one-site case: it runs as an implicit one-site
federation and is reported exactly like a single-site run.

This module also holds what the runner derives from a spec before any site
exists — the arrival process realising the workload pattern and the access
channel of a network profile — and the picklable result types
(:class:`ScenarioResult`, :class:`SiteResult`) that campaigns and the CLI
consume.

Every random draw comes from a named stream of one
:class:`~repro.simulation.randomness.RandomStreams` seeded per scenario, so a
(spec, seed) pair maps to exactly one result regardless of what else runs in
the process (or in which campaign worker it runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.network.channel import CommunicationChannel
from repro.network.latency import (
    ConstantLatencyModel,
    LogNormalLatencyModel,
    lte_latency_model,
    three_g_latency_model,
)
from repro.scenarios.spec import NetworkSpec, ScenarioSpec, WorkloadSpec
from repro.workload.arrival import (
    ArrivalProcess,
    FixedRateArrivalProcess,
    ModulatedPoissonProcess,
    PoissonArrivalProcess,
    UniformArrivalProcess,
)


@dataclass(frozen=True)
class SiteGroupResult:
    """One site's request tally for one requesting acceleration group.

    The group is the *user's promotion level* at routing time (un-promoted
    users sit in their home site's lowest group), not the post-clamp serving
    group — this is the per-cohort breakdown the group-aware broker signal
    is judged by.  "Routing time" is request submission in event mode and
    the slot boundary in batched mode; the two coincide exactly whenever
    promotions are off (every pinned parity scenario) and differ only by
    the documented promotion-timing approximation otherwise.
    """

    group: int
    requests_total: int
    requests_dropped: int


@dataclass(frozen=True)
class SiteResult:
    """Per-site metrics of one multi-site scenario run (picklable scalars)."""

    name: str
    requests_total: int
    requests_dropped: int
    mean_response_ms: float
    p95_response_ms: float
    allocation_cost_usd: float
    scaling_actions: int
    predictions: int
    mean_utilization: float
    requests_spilled_in: int = 0
    #: Requests this site served after at least one failed attempt.
    requests_retried: int = 0
    #: Failover arrivals this site absorbed (requests killed or retried away
    #: from another site that ended up served here).
    requests_failed_over: int = 0
    #: Requests assigned here that exhausted retries and ran on the device.
    requests_degraded_local: int = 0
    groups: Tuple[SiteGroupResult, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))

    @property
    def drop_rate(self) -> float:
        if self.requests_total == 0:
            return 0.0
        return self.requests_dropped / self.requests_total

    def as_row(self) -> Dict[str, object]:
        """One per-site comparison row (the multisite CLI/CSV schema)."""

        def cell(value: float, digits: int) -> object:
            return round(value, digits) if value == value else "n/a"

        return {
            "site": self.name,
            "requests": self.requests_total,
            "drop_rate_pct": round(100.0 * self.drop_rate, 2),
            "spilled_in": self.requests_spilled_in,
            "retried": self.requests_retried,
            "failed_over": self.requests_failed_over,
            "degraded_local": self.requests_degraded_local,
            "mean_ms": cell(self.mean_response_ms, 1),
            "p95_ms": cell(self.p95_response_ms, 1),
            "cost_usd": round(self.allocation_cost_usd, 3),
            "scaling_actions": self.scaling_actions,
            "predictions": self.predictions,
            "utilization_pct": round(100.0 * self.mean_utilization, 1),
        }


@dataclass(frozen=True)
class ScenarioResult:
    """Per-scenario metrics — plain scalars, cheap to pickle across workers.

    For multi-site scenarios the headline numbers are federation-wide
    (``requests_dropped`` includes requests dropped at the broker because no
    site was available, counted separately in ``requests_unrouted``) and
    ``sites`` carries the per-site breakdown.
    """

    name: str
    seed: int
    users: int
    duration_hours: float
    requests_total: int
    requests_succeeded: int
    requests_dropped: int
    mean_response_ms: float
    p50_response_ms: float
    p95_response_ms: float
    p99_response_ms: float
    prediction_accuracy: float
    predictions: int
    scaling_actions: int
    allocation_cost_usd: float
    mean_utilization: float
    promoted_users: int
    promotions: int
    requests_unrouted: int = 0
    requests_spilled: int = 0
    #: Requests that needed at least one retry (fault plane; 0 without one).
    requests_retried: int = 0
    #: Requests re-routed to another site by retry/outage failover.
    requests_failed_over: int = 0
    #: Requests that exhausted retries and executed on the device instead —
    #: graceful degradation; these count as *successes*, with the on-device
    #: execution time (plus the latency burned on failed attempts) folded
    #: into the response-time distribution.
    requests_degraded_local: int = 0
    slot_site_requests: Tuple[Tuple[int, ...], ...] = ()
    sites: Tuple[SiteResult, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(
            self,
            "slot_site_requests",
            tuple(tuple(row) for row in self.slot_site_requests),
        )

    def slot_routing_shares(self) -> Tuple[Tuple[float, ...], ...]:
        """Per-slot fraction of routed requests each site received.

        Empty slots yield all-zero rows; single-site runs yield ``()``.
        The dynamic-broker parity suite compares these across execution
        modes — they must match exactly under a shared seed.
        """
        shares = []
        for row in self.slot_site_requests:
            total = sum(row)
            shares.append(
                tuple(count / total for count in row) if total else tuple(0.0 for _ in row)
            )
        return tuple(shares)

    @property
    def drop_rate(self) -> float:
        """Fraction of requests dropped (admission control or brokering)."""
        if self.requests_total == 0:
            return 0.0
        return self.requests_dropped / self.requests_total

    @property
    def is_multisite(self) -> bool:
        return bool(self.sites)

    def site_rows(self) -> List[Dict[str, object]]:
        """Per-site comparison rows (empty for single-site runs)."""
        return [site.as_row() for site in self.sites]

    def as_row(self) -> Dict[str, object]:
        """One comparison-table row (the cross-scenario CSV schema).

        NaN metrics (no successful request, or no prediction made) render as
        ``"n/a"`` so tables stay readable and CSVs never carry literal nan.
        """

        def cell(value: float, digits: int) -> object:
            return round(value, digits) if value == value else "n/a"

        return {
            "scenario": self.name,
            "seed": self.seed,
            "users": self.users,
            "hours": round(self.duration_hours, 2),
            "requests": self.requests_total,
            "drop_rate_pct": round(100.0 * self.drop_rate, 2),
            "p50_ms": cell(self.p50_response_ms, 1),
            "p95_ms": cell(self.p95_response_ms, 1),
            "p99_ms": cell(self.p99_response_ms, 1),
            "mean_ms": cell(self.mean_response_ms, 1),
            "pred_accuracy_pct": cell(100.0 * self.prediction_accuracy, 1),
            "predictions": self.predictions,
            "cost_usd": round(self.allocation_cost_usd, 3),
            "utilization_pct": round(100.0 * self.mean_utilization, 1),
            "promoted_users": self.promoted_users,
            "spilled": self.requests_spilled,
            "retried": self.requests_retried,
            "failed_over": self.requests_failed_over,
            "degraded_local": self.requests_degraded_local,
        }

    def rows(self) -> List[Dict[str, object]]:
        """Single-result table used by ``repro-accel scenario run``."""
        return [self.as_row()]


# ---------------------------------------------------------------------------
# Spec -> simulation components
# ---------------------------------------------------------------------------


def _rate_factor_fn(
    workload: WorkloadSpec, duration_ms: float
) -> "Tuple[Callable[[object], object], float]":
    """The pattern's rate modulation over time, as a factor of the base rate.

    Returns ``(factor_fn, peak_factor)`` where ``peak_factor`` is the exact
    maximum of ``factor_fn`` (the thinning algorithm needs a true upper
    bound; a sampled maximum can undershoot the continuous one).  The factor
    functions are numpy-aware: handed an array of times they return an array,
    which both the calibration grid and the vectorised thinning generator
    rely on.
    """
    if workload.pattern == "flash-crowd":
        start = workload.burst_start * duration_ms
        end = min(start + workload.burst_duration * duration_ms, duration_ms)

        def factor(t_ms):
            t = np.asarray(t_ms, dtype=float)
            values = np.where((t >= start) & (t < end), workload.burst_factor, 1.0)
            return values if values.ndim else float(values)

        return factor, workload.burst_factor
    if workload.pattern == "diurnal":
        trough = workload.trough_factor
        peak_hour = workload.peak_hour

        def factor(t_ms):
            t = np.asarray(t_ms, dtype=float)
            hour = (t / 3_600_000.0) % 24.0
            phase = 2.0 * np.pi * (hour - peak_hour) / 24.0
            # Cosine day/night cycle: 1.0 at the peak hour, `trough` opposite.
            values = trough + (1.0 - trough) * 0.5 * (1.0 + np.cos(phase))
            return values if values.ndim else float(values)

        return factor, 1.0
    if workload.pattern == "bursty":
        period = duration_ms / workload.burst_count
        on_fraction = min(workload.burst_duration, 1.0)

        def factor(t_ms):
            t = np.asarray(t_ms, dtype=float)
            phase = (t % period) / period
            values = np.where(phase < on_fraction, workload.burst_factor, 1.0)
            return values if values.ndim else float(values)

        return factor, workload.burst_factor
    raise ValueError(f"pattern {workload.pattern!r} has no rate modulation")


def build_arrival_process(
    workload: WorkloadSpec, duration_ms: float
) -> ArrivalProcess:
    """The arrival process realising ``workload`` over a run of ``duration_ms``.

    The base rate is calibrated so the expected number of arrivals over the
    run is ``target_requests`` for every pattern (the modulation's mean factor
    is integrated numerically on a fine grid, in one vectorised evaluation).
    """
    if duration_ms <= 0:
        raise ValueError(f"duration_ms must be positive, got {duration_ms}")
    mean_rate_hz = 1000.0 * workload.target_requests / duration_ms
    if workload.pattern == "uniform":
        mean_gap_ms = duration_ms / workload.target_requests
        return UniformArrivalProcess(low_ms=0.5 * mean_gap_ms, high_ms=1.5 * mean_gap_ms)
    if workload.pattern == "poisson":
        return PoissonArrivalProcess(rate_hz=mean_rate_hz)
    if workload.pattern == "fixed":
        return FixedRateArrivalProcess(rate_hz=mean_rate_hz)
    factor, peak_factor = _rate_factor_fn(workload, duration_ms)
    # The mean factor calibrates the base rate to hit target_requests in
    # expectation; a fine grid is accurate enough for calibration.
    grid = np.linspace(0.0, duration_ms, 4096, endpoint=False)
    mean_factor = float(np.mean(factor(grid)))
    base_rate_hz = mean_rate_hz / mean_factor
    return ModulatedPoissonProcess(
        lambda t_ms: base_rate_hz * factor(t_ms),
        peak_rate_hz=base_rate_hz * peak_factor,
    )


def build_channel(
    network: NetworkSpec, rng: np.random.Generator
) -> CommunicationChannel:
    """The access-network channel for a spec's network profile."""
    if network.profile == "lte":
        access = lte_latency_model()
    elif network.profile == "3g":
        access = three_g_latency_model()
    elif network.profile == "degraded-3g":
        base = three_g_latency_model()
        access = LogNormalLatencyModel(
            median_ms=base.median_ms * network.degradation,
            mean_ms=base.mean_ms * network.degradation,
            floor_ms=base.floor_ms * network.degradation,
        )
    else:  # constant
        access = ConstantLatencyModel(rtt_ms=network.constant_rtt_ms)
    return CommunicationChannel(access_model=access, rng=rng)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec,
    *,
    seed: Optional[int] = None,
    telemetry=None,
) -> ScenarioResult:
    """Execute one scenario end to end and return its metric summary.

    ``seed`` overrides ``spec.seed`` (the campaign runner derives one per
    scenario name); when neither is given, seed 0 is used.

    Every scenario runs as a federation of N >= 1 sites
    (:mod:`repro.multisite.runner`).  Scenarios with a ``sites:`` section
    return the per-site breakdown in :attr:`ScenarioResult.sites`; a spec
    without one runs as a one-site federation and is reported as a
    single-site run (no ``sites``, no per-slot routing shares).

    ``telemetry`` is the optional observability collaborator (see
    :mod:`repro.telemetry`): pass a :class:`~repro.telemetry.Telemetry` to
    collect metrics and a slot-phase trace, or leave it ``None`` to follow
    ``spec.telemetry`` (off by default).  Telemetry never changes the
    result — the parity suite pins bit-identical output on vs off.
    """
    from repro.multisite import runner as federation_runner  # avoids module cycle

    if spec.sites is not None:
        return federation_runner.run_multisite_scenario(
            spec, seed=seed, telemetry=telemetry
        )
    return federation_runner._run_multisite(spec, seed, telemetry)
