"""Declarative multi-site federation specifications.

A :class:`SiteSpec` describes one geographically distinct acceleration site —
its own instance catalog and capacity cap (a :class:`~repro.scenarios.spec.CloudSpec`),
its own access-network profile, a WAN latency penalty for requests that are
brokered to it from elsewhere, a site-wide pricing multiplier and scheduled
outage windows.  A :class:`MultiSiteSpec` bundles several sites with the
global broker policy that assigns each request to a site.

Like the scenario specs these are frozen dataclasses of plain values: each
numeric or choice field declares its rule next to it and construction checks
them through :func:`repro.scenarios.rules.check` (finite numbers, one
``"<field> must be <rule>, got <value>"`` message form).  Nested sections may
be given in their dict form, so ``MultiSiteSpec(**dataclasses.asdict(spec))``
rebuilds a spec, and specs pickle cleanly across campaign worker processes.

Latency model
-------------
Each site sits on a federation interconnect.  ``wan_rtt_ms`` is the site's
round-trip distance to that interconnect; a request from a user homed at site
``h`` but served at site ``s != h`` pays ``wan_rtt_ms(h) + wan_rtt_ms(s)``
extra round-trip latency on top of the serving site's access network.  A
request served at its home site pays no WAN penalty.

Outage semantics
----------------
An :class:`OutageWindow` makes a site unreachable for *new* requests arriving
inside the window (fractions of the run); the broker routes around
unavailable sites according to its policy, and when no site is available the
request is dropped at the broker.  What happens to requests already in
flight at window onset depends on the scenario's fault plane
(:class:`~repro.faults.spec.FaultSpec`):

* no ``FaultSpec`` (the historical default) — in-flight requests drain
  normally; only new arrivals are diverted.
* ``FaultSpec`` present — **strict** semantics: in-flight requests are
  killed at onset and handed to the retry/failover/local-fallback pipeline
  (``fault.outage_kills`` counts them).  Set
  ``FaultSpec(lenient_outages=True)`` to keep the historical drain-through
  behaviour while still using the rest of the fault plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.scenarios.rules import FractionWindow, check, choice, coerce, real
from repro.scenarios.spec import CloudSpec, NetworkSpec

#: Supported global broker routing policies (see :mod:`repro.multisite.broker`).
#:
#: * ``nearest-rtt`` — each request goes to the available site with the lowest
#:   expected RTT for its user (home site first, then by WAN distance).
#: * ``cheapest`` — every request goes to the available site with the lowest
#:   effective price per unit of capacity.
#: * ``weighted-load`` — requests are spread over available sites by weighted
#:   round-robin (weights default to each site's instance cap).
#: * ``failover`` — all requests go to the first available site in declaration
#:   order (primary/secondary/... with automatic failover).
#: * ``dynamic-load`` — weighted round-robin whose weights are recomputed at
#:   every control-slot boundary from live per-site state (queue backlog,
#:   serving capacity of the current fleet, outage status), optionally with
#:   mid-slot spillover (:class:`SpilloverSpec`).  Brokering happens inside
#:   the slot loop instead of as a pre-partition of the whole plan.
BROKER_POLICIES = (
    "nearest-rtt",
    "cheapest",
    "weighted-load",
    "failover",
    "dynamic-load",
)

#: Spillover target preferences (see :class:`SpilloverSpec`).
SPILLOVER_PREFERENCES = ("nearest-rtt", "cheapest")

#: Capacity-signal resolutions of the ``dynamic-load`` broker's live-state
#: protocol (see :class:`MultiSiteSpec.capacity_signal`).
#:
#: * ``per-group`` — capacity, admission limits and the broker's fluid
#:   backlog are resolved per (site, acceleration group): a request only
#:   sees the capacity of the group that would actually serve it at each
#:   site.  This is the default and the correct signal for multi-group
#:   fleets.
#: * ``fleet`` — the historical fleet-scalar signal: every site advertises
#:   one aggregate number summed over all its groups.  Exact for
#:   single-group sites, but overstates what un-promoted traffic can use on
#:   sites holding mostly high-tier instances; kept for A/B comparison.
CAPACITY_SIGNALS = ("per-group", "fleet")


@dataclass(frozen=True)
class OutageWindow(FractionWindow):
    """One scheduled unavailability window, as fractions of the run duration."""


@dataclass(frozen=True)
class SpilloverSpec:
    """Cross-site spillover knobs of the ``dynamic-load`` broker.

    A site *saturates* once the broker's live in-flight estimate — queued
    plus in-service requests, drained continuously at the fleet's serving
    rate — would exceed ``queue_limit_fraction`` of the site's admission
    capacity (the summed per-instance admission limits of its running
    fleet, i.e. the level at which the site starts rejecting).  Requests
    the weighted round-robin would have sent there are re-brokered mid-slot
    to the ``prefer``-ranked available site whose own queue still has room,
    with the WAN penalty re-applied for the new serving site.  When no
    other site has room the request stays at its original site
    (federation-wide overload spills nowhere).
    """

    queue_limit_fraction: float = real(0.8, gt=0.0, le=1.0)
    prefer: str = choice("nearest-rtt", SPILLOVER_PREFERENCES)

    def __post_init__(self) -> None:
        check(self)


@dataclass(frozen=True)
class SiteSpec:
    """One acceleration site of the federation."""

    name: str
    cloud: CloudSpec = field(default_factory=CloudSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    wan_rtt_ms: float = real(0.0, ge=0.0)
    price_multiplier: float = real(1.0, gt=0.0)
    population_share: float = real(1.0, ge=0.0)
    weight: Optional[float] = real(None, gt=0.0)
    outages: Tuple[OutageWindow, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site name must be non-empty")
        check(self)
        coerce(self, "cloud", CloudSpec)
        coerce(self, "network", NetworkSpec)
        coerce(self, "outages", OutageWindow, many=True)

    @property
    def broker_weight(self) -> float:
        """The weighted-load broker weight (defaults to the instance cap)."""
        return float(self.weight) if self.weight is not None else float(self.cloud.instance_cap)

    def available_at(self, t_ms: float, duration_ms: float) -> bool:
        """Whether the site accepts new requests at simulated time ``t_ms``."""
        return not any(window.contains(t_ms, duration_ms) for window in self.outages)


@dataclass(frozen=True)
class MultiSiteSpec:
    """The federation: the sites, the global broker policy, spillover knobs.

    ``spillover`` only takes effect under the ``dynamic-load`` policy (the
    static pre-partitioning policies never see live backlog, so they have no
    saturation signal to spill on); setting it with any other policy is
    rejected at construction time.  ``capacity_signal`` picks the resolution
    of that policy's live-state protocol (:data:`CAPACITY_SIGNALS`):
    acceleration-group-resolved by default, or the legacy ``fleet`` scalars
    for A/B comparison against the mis-weighting they cause.
    """

    sites: Tuple[SiteSpec, ...]
    policy: str = choice("nearest-rtt", BROKER_POLICIES)
    spillover: Optional[SpilloverSpec] = None
    capacity_signal: str = choice("per-group", CAPACITY_SIGNALS)

    def __post_init__(self) -> None:
        check(self)
        coerce(self, "sites", SiteSpec, many=True)
        coerce(self, "spillover", SpilloverSpec)
        if not self.sites:
            raise ValueError("a federation needs at least one site")
        names = [site.name for site in self.sites]
        if len(set(names)) != len(names):
            raise ValueError(f"site names must be unique, got {names}")
        if all(site.population_share == 0 for site in self.sites):
            raise ValueError("at least one site needs a positive population_share")
        if self.spillover is not None and self.policy != "dynamic-load":
            raise ValueError(
                "spillover requires the dynamic-load policy, "
                f"got policy {self.policy!r}"
            )

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def site_names(self) -> Tuple[str, ...]:
        return tuple(site.name for site in self.sites)

    @property
    def group_axis(self) -> Tuple[int, ...]:
        """Every acceleration group declared anywhere in the federation, sorted.

        This is the shared column axis of the federation's (site × group)
        capacity and admission matrices: sites that do not declare a group
        simply carry zero capacity in its column.
        """
        groups = set()
        for site in self.sites:
            groups.update(int(group) for group in site.cloud.group_types)
        return tuple(sorted(groups))
