"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes one complete simulated deployment — who
offloads (user count and device mix), how the load arrives (arrival pattern),
what serves it (acceleration groups, instance catalog and pricing), over which
network, and which prediction/promotion/routing policies govern the adaptive
model — as plain data.  The scenario runner
(:func:`repro.scenarios.runner.run_scenario`) turns a spec into a full
discrete-event simulation without any hand-written experiment module, so new
workloads beyond the paper's eight fixed figure experiments are one spec away.

All spec classes are frozen dataclasses of plain values.  Each numeric or
choice field declares its rule next to it (:mod:`repro.scenarios.rules`), and
construction checks them all: a bad value raises ``ValueError("<field> must
be <rule>, got <value>")`` and numbers must be finite.  Nested sections may be
given in their dict form, so ``ScenarioSpec(**spec.to_dict())`` rebuilds a
spec, and specs pickle cleanly across the campaign runner's worker processes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from repro.cloud.catalog import DEFAULT_CATALOG
from repro.mobile.device import DEVICE_PROFILES
from repro.mobile.tasks import DEFAULT_TASK_POOL
from repro.scenarios.rules import Rule, check, choice, coerce, integer, real

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (multisite uses our specs)
    from repro.faults.spec import FaultSpec
    from repro.multisite.spec import MultiSiteSpec

#: Supported arrival patterns (see :class:`WorkloadSpec`).
ARRIVAL_PATTERNS = ("uniform", "poisson", "fixed", "flash-crowd", "diurnal", "bursty")

#: Supported access-network profiles (see :class:`NetworkSpec`).
NETWORK_PROFILES = ("lte", "3g", "degraded-3g", "constant")

#: Supported promotion policies (see :class:`PolicySpec`).
PROMOTION_POLICIES = ("static", "threshold", "battery")

#: Supported front-end routing policies (see :class:`PolicySpec`).
ROUTING_POLICIES = ("acceleration-group", "round-robin")

#: Supported predictor strategies (mirrors ``WorkloadPredictor.STRATEGIES``).
PREDICTOR_STRATEGIES = ("nearest", "successor")

#: Supported execution modes for the scenario runner.
#:
#: * ``event`` — every request hop is a discrete event on the engine (exact
#:   processor-sharing service, promotions applied at delivery time).
#: * ``batched`` — the data plane is computed per provisioning slot as numpy
#:   arrays from the same pre-drawn request plan; the control plane
#:   (prediction, allocation, autoscaling) still runs at the same slot
#:   boundaries.  ~10-40x faster; see ``repro.scenarios.batched`` for the
#:   documented approximations.
EXECUTION_MODES = ("event", "batched")

#: The Section VI-C acceleration groups used when a spec does not override them.
DEFAULT_GROUP_TYPES: Dict[int, str] = {1: "t2.nano", 2: "t2.large", 3: "m4.4xlarge"}


@dataclass(frozen=True)
class WorkloadSpec:
    """How offloading requests arrive over the run.

    ``target_requests`` calibrates the base arrival rate so every pattern
    produces roughly that many requests over the scenario duration; the
    pattern then shapes the rate over time:

    * ``uniform`` — gaps uniform in ``[0.5, 1.5] ×`` the mean gap (the
      paper's Section VI-C driver).
    * ``poisson`` — homogeneous Poisson arrivals.
    * ``fixed`` — deterministic constant-rate arrivals.
    * ``flash-crowd`` — Poisson with one ``burst_factor``× rate spike in the
      window ``[burst_start, burst_start + burst_duration]`` (fractions of
      the run).
    * ``diurnal`` — Poisson with a sinusoidal day/night cycle peaking at
      ``peak_hour`` and bottoming out at ``trough_factor``× the peak rate.
    * ``bursty`` — Poisson with ``burst_count`` evenly spaced on/off bursts
      at ``burst_factor``× the base rate.
    """

    pattern: str = choice("uniform", ARRIVAL_PATTERNS)
    target_requests: int = integer(800, ge=1)
    burst_factor: float = real(4.0, ge=1.0)
    burst_start: float = real(0.5, ge=0.0, le=1.0)
    burst_duration: float = real(0.15, gt=0.0, le=1.0)
    burst_count: int = integer(4, ge=1)
    trough_factor: float = real(0.25, gt=0.0, le=1.0)
    peak_hour: float = real(20.0, ge=0.0, lt=24.0)

    def __post_init__(self) -> None:
        check(self)


@dataclass(frozen=True)
class DeviceMixSpec:
    """The device fleet: relative weight of each hardware profile.

    Profiles are sampled per user with probability proportional to weight;
    names must exist in :data:`repro.mobile.device.DEVICE_PROFILES`.
    """

    weights: Mapping[str, float] = real(
        ge=0.0, each=True, default_factory=lambda: {name: 1.0 for name in DEVICE_PROFILES}
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", dict(self.weights))
        check(self)
        if not self.weights:
            raise ValueError("device mix needs at least one profile")
        for name in self.weights:
            if name not in DEVICE_PROFILES:
                raise ValueError(
                    f"unknown device profile {name!r}; known: {sorted(DEVICE_PROFILES)}"
                )
        if not sum(self.weights.values()) > 0:
            raise ValueError("device mix weights must sum to a positive value")


#: An acceleration-group key: the paper's levels count from 1.
_GROUP_KEY = Rule(integer=True, lo=1)


def _group_key(key: Any) -> int:
    """``key`` as an acceleration group; a decimal string (a JSON key) is parsed."""
    value = key
    if isinstance(key, str):
        try:
            value = int(key)
        except ValueError:
            pass
    if not _GROUP_KEY.accepts(value):
        raise ValueError(f"acceleration group must be {_GROUP_KEY}, got {key!r}")
    return int(value)


@dataclass(frozen=True)
class CloudSpec:
    """The serving side: acceleration groups, capacity limits and pricing.

    ``price_multipliers`` scales the catalog's hourly prices per instance
    type, which lets a scenario model a price spike (the allocator then
    re-optimises the instance mix) without a separate catalog.

    ``boot_delay_ms`` models the window between launching an instance and
    the instance becoming ready: a booting instance is billed and occupies a
    cap slot immediately, but advertises no serving capacity (and no
    admission headroom) to the federation broker's live-state protocol
    until the delay elapses.  It is an accounting/routing-signal concept
    only — intra-site dispatch still serves from launch, matching the
    paper's instant-launch single-site model.
    """

    group_types: Mapping[int, str] = field(
        default_factory=lambda: dict(DEFAULT_GROUP_TYPES)
    )
    instance_cap: int = integer(20, ge=1)
    initial_instances_per_group: int = integer(1, ge=1)
    response_threshold_ms: float = real(5000.0, gt=0.0)
    price_multipliers: Mapping[str, float] = real(gt=0.0, each=True, default_factory=dict)
    boot_delay_ms: float = real(0.0, ge=0.0)

    def __post_init__(self) -> None:
        given = dict(self.group_types)
        group_types = {_group_key(group): name for group, name in given.items()}
        if len(group_types) != len(given):
            raise ValueError(f"acceleration groups must be distinct, got {given!r}")
        object.__setattr__(self, "group_types", group_types)
        object.__setattr__(self, "price_multipliers", dict(self.price_multipliers))
        check(self)
        if not group_types:
            raise ValueError("cloud spec needs at least one acceleration group")
        for type_name in group_types.values():
            if type_name not in DEFAULT_CATALOG:
                raise ValueError(
                    f"unknown instance type {type_name!r}; "
                    f"known: {sorted(t.name for t in DEFAULT_CATALOG)}"
                )
        type_names = list(group_types.values())
        if len(set(type_names)) != len(type_names):
            # One instance type cannot serve two acceleration groups: the
            # runner maps type -> group, so duplicates would silently merge
            # groups (and the catalog rejects duplicate entries anyway).
            raise ValueError(
                f"each acceleration group needs a distinct instance type, got {group_types}"
            )
        for type_name in self.price_multipliers:
            if type_name not in DEFAULT_CATALOG:
                raise ValueError(
                    f"price multiplier for unknown instance type {type_name!r}"
                )


@dataclass(frozen=True)
class NetworkSpec:
    """The access network between devices and the SDN front-end.

    ``degraded-3g`` inflates the 3G model's median and mean RTT by
    ``degradation``× (preserving the log-normal shape), modelling a congested
    or rural cell.  ``constant`` is a deterministic RTT for debugging.
    """

    profile: str = choice("lte", NETWORK_PROFILES)
    constant_rtt_ms: float = real(50.0, ge=0.0)
    degradation: float = real(2.5, ge=1.0)

    def __post_init__(self) -> None:
        check(self)


@dataclass(frozen=True)
class PolicySpec:
    """The adaptive-model knobs: prediction, promotion and routing."""

    predictor_strategy: str = choice("nearest", PREDICTOR_STRATEGIES)
    min_history: int = integer(2, ge=2)
    promotion: str = choice("static", PROMOTION_POLICIES)
    promotion_probability: float = real(1.0 / 50.0, ge=0.0, le=1.0)
    promotion_threshold_ms: float = real(2000.0, gt=0.0)
    routing: str = choice("acceleration-group", ROUTING_POLICIES)

    def __post_init__(self) -> None:
        check(self)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, runnable scenario.

    When ``sites`` is set the scenario runs as a **multi-site federation**
    (see :mod:`repro.multisite`): each site brings its own cloud catalog,
    capacity cap, pricing and access network, and a global broker assigns
    every request to a site.  The top-level ``cloud`` and ``network``
    sections are then ignored in favour of the per-site ones.
    """

    name: str
    description: str = ""
    users: int = integer(60, ge=1)
    duration_hours: float = real(2.0, gt=0.0)
    slot_minutes: float = real(30.0, gt=0.0)
    seed: Optional[int] = integer(None, ge=0)
    task_name: str = "minimax"
    execution: str = choice("event", EXECUTION_MODES)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    devices: DeviceMixSpec = field(default_factory=DeviceMixSpec)
    cloud: CloudSpec = field(default_factory=CloudSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    sites: Optional["MultiSiteSpec"] = None
    #: The scenario's fault plane (see :mod:`repro.faults`): preemption and
    #: degraded-network windows, per-attempt offload failure, control-plane
    #: staleness, plus the retry/degradation policy answering them.  ``None``
    #: (the default) keeps every pre-fault-plane behavior byte-identical,
    #: including the lenient legacy outage semantics.
    faults: Optional["FaultSpec"] = None
    #: Collect metrics + a slot-phase trace for this run.  Purely
    #: observational: results are bit-identical with the knob on or off
    #: (pinned by the telemetry parity suite).
    telemetry: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        check(self)
        if self.task_name not in DEFAULT_TASK_POOL.names:
            raise ValueError(
                f"unknown task {self.task_name!r}; known: {sorted(DEFAULT_TASK_POOL.names)}"
            )
        from repro.faults.spec import FaultSpec  # deferred: cycle guard
        from repro.multisite.spec import MultiSiteSpec

        for name, spec_cls in (
            ("workload", WorkloadSpec),
            ("devices", DeviceMixSpec),
            ("cloud", CloudSpec),
            ("network", NetworkSpec),
            ("policy", PolicySpec),
            ("sites", MultiSiteSpec),
            ("faults", FaultSpec),
        ):
            coerce(self, name, spec_cls)
        if self.workload.target_requests < self.users:
            raise ValueError(
                f"target_requests ({self.workload.target_requests}) must be at "
                f"least the number of users ({self.users})"
            )
        faults = self.faults
        if faults is not None:
            site_names = list(self.sites.site_names) if self.sites is not None else []
            for window in faults.preemptions:
                if window.site is None:
                    continue
                if self.sites is None:
                    raise ValueError(
                        f"preemption window targets site {window.site!r} but "
                        f"scenario {self.name!r} is single-site"
                    )
                if window.site not in site_names:
                    raise ValueError(
                        f"preemption window targets unknown site {window.site!r}; "
                        f"known: {site_names}"
                    )
                if self.sites.policy == "dynamic-load":
                    raise ValueError(
                        "site-scoped preemption windows need a static brokering "
                        "policy (the dynamic broker assigns sites only at "
                        "execution time, after fault draws are sealed); "
                        f"scenario {self.name!r} uses dynamic-load"
                    )
            if faults.control_plane is not None and (
                self.sites is None or self.sites.policy != "dynamic-load"
            ):
                raise ValueError(
                    "control-plane faults degrade the dynamic broker's load "
                    f"snapshots; scenario {self.name!r} does not use the "
                    "dynamic-load policy"
                )

    @property
    def duration_ms(self) -> float:
        return self.duration_hours * 3_600_000.0

    @property
    def slot_length_ms(self) -> float:
        return self.slot_minutes * 60_000.0

    @property
    def periods(self) -> int:
        """Number of provisioning periods in the run (last one may be partial)."""
        return int(math.ceil(self.duration_ms / self.slot_length_ms))

    def with_overrides(
        self,
        *,
        users: Optional[int] = None,
        duration_hours: Optional[float] = None,
        target_requests: Optional[int] = None,
        seed: Optional[int] = None,
        execution: Optional[str] = None,
        broker: Optional[str] = None,
        capacity_signal: Optional[str] = None,
        telemetry: Optional[bool] = None,
    ) -> "ScenarioSpec":
        """A copy with the common CLI-level knobs replaced.

        ``broker`` replaces the federation's routing policy (the CLI's
        ``--broker`` flag) and is only valid for multi-site scenarios.
        Overriding a spillover-enabled federation to a non-dynamic policy
        drops the spillover knobs (static policies cannot spill).
        ``capacity_signal`` replaces the federation's live-state resolution
        (``per-group`` | ``fleet``; the CLI's ``--capacity-signal`` flag),
        equally multi-site-only.
        """
        workload = self.workload
        if target_requests is not None:
            workload = dataclasses.replace(workload, target_requests=target_requests)
        sites = self.sites
        if broker is not None:
            if sites is None:
                raise ValueError(
                    f"scenario {self.name!r} is single-site: --broker only "
                    "applies to scenarios with a sites: section"
                )
            spillover = sites.spillover if broker == "dynamic-load" else None
            sites = dataclasses.replace(sites, policy=broker, spillover=spillover)
        if capacity_signal is not None:
            if sites is None:
                raise ValueError(
                    f"scenario {self.name!r} is single-site: --capacity-signal "
                    "only applies to scenarios with a sites: section"
                )
            sites = dataclasses.replace(sites, capacity_signal=capacity_signal)
        return dataclasses.replace(
            self,
            users=users if users is not None else self.users,
            duration_hours=(
                duration_hours if duration_hours is not None else self.duration_hours
            ),
            seed=seed if seed is not None else self.seed,
            execution=execution if execution is not None else self.execution,
            workload=workload,
            sites=sites,
            telemetry=telemetry if telemetry is not None else self.telemetry,
        )

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict view (JSON/YAML friendly); ``ScenarioSpec(**view)`` rebuilds it."""
        return dataclasses.asdict(self)
