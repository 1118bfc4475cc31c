"""repro.multisite — multi-site acceleration federation with global brokering.

The paper provisions one cloud's acceleration groups; this package scales the
reproduction out to several geographically distinct sites — edge and core —
each running its **own** adaptive model (prediction history, ILP allocation,
autoscaling and billing are fully per site), coordinated only by a thin
global broker that assigns every request to a site.

* :mod:`repro.multisite.spec` — :class:`SiteSpec` (own instance catalog,
  pricing multiplier, network profile, capacity cap, outage windows) and
  :class:`MultiSiteSpec` (the sites plus the broker policy).
* :mod:`repro.multisite.broker` — deterministic request→site assignment
  under the ``nearest-rtt`` / ``cheapest`` / ``weighted-load`` / ``failover``
  policies (plan-time pre-partition, with outage-aware availability
  segments) and the ``dynamic-load`` :class:`DynamicBroker` that re-brokers
  inside the slot loop from live per-site backlog, with optional cross-site
  spillover.
* :mod:`repro.multisite.federation` — one serving stack per site.
* :mod:`repro.multisite.runner` — the end-to-end runner behind
  ``run_scenario`` for both the event and the batched (per-site Lindley
  recursion) execution modes; a spec without ``sites:`` runs through it as
  an implicit one-site federation.

Quick start
-----------
>>> from repro.scenarios import get_scenario, run_scenario
>>> result = run_scenario(get_scenario("edge-vs-core"), seed=0)
>>> [site.name for site in result.sites]
['edge', 'core']
"""

from repro.multisite.broker import (
    UNROUTED,
    BrokeredPlan,
    DynamicBroker,
    SiteLoadState,
    StaticSlotBroker,
    assign_home_sites,
    availability_segments,
    broker_assign,
    site_price_scores,
    wan_penalty_matrix,
)
from repro.multisite.federation import (
    Federation,
    SiteRuntime,
    build_federation,
    build_site_catalog,
    build_site_runtime,
)
from repro.multisite.runner import (
    FederationMetrics,
    run_multisite_scenario,
)
from repro.multisite.spec import (
    BROKER_POLICIES,
    MultiSiteSpec,
    OutageWindow,
    SiteSpec,
    SpilloverSpec,
)

__all__ = [
    "BROKER_POLICIES",
    "UNROUTED",
    "BrokeredPlan",
    "DynamicBroker",
    "Federation",
    "FederationMetrics",
    "MultiSiteSpec",
    "OutageWindow",
    "SiteLoadState",
    "SiteRuntime",
    "SiteSpec",
    "SpilloverSpec",
    "StaticSlotBroker",
    "assign_home_sites",
    "availability_segments",
    "broker_assign",
    "build_federation",
    "build_site_catalog",
    "build_site_runtime",
    "run_multisite_scenario",
    "site_price_scores",
    "wan_penalty_matrix",
]
