"""Built-in scenario registry.

Eight scenarios ship with the engine, each designed to exercise a different
failure mode of the edit-distance predictor / ILP allocator pipeline:

``paper-baseline``
    The Section VI-C deployment (uniform arrivals, three groups, 1/50 static
    promotion) scaled to a 2-hour run — the reference point every other
    scenario is compared against.
``flash-crowd``
    A single 6× arrival spike mid-run.  Nearest-slot prediction has never
    seen the spike, so the allocator under-provisions exactly when load peaks.
``diurnal``
    A 24-hour sinusoidal day/night cycle.  The history fills with similar
    slots from the same phase, which is the regime the predictor is built for.
``bursty-poisson``
    Regular on/off bursts shorter than the provisioning period, invisible in
    per-slot aggregates — stresses admission control rather than prediction.
``heterogeneous-fleet``
    A fleet dominated by wearables and budget phones with degradation-driven
    (response-time threshold) promotion: promotion pressure comes from slow
    devices, not coin flips.
``price-spike``
    High-end instance prices multiplied mid-catalog (8× m4.4xlarge, 4×
    t2.large): the ILP must re-optimise the mix toward many cheap instances.
``degraded-3g``
    A congested 3G access network (2.5× RTT): response times degrade for
    network reasons the cloud allocator cannot fix, and threshold promotion
    keeps firing anyway.
``cold-history``
    A short run with a long ``min_history`` bootstrap: the model never (or
    barely) reaches prediction and the autoscaler falls back to reactive
    provisioning — the paper's "bootstrap time" caveat, isolated.

Seven **multi-site federation** scenarios exercise the global broker
(:mod:`repro.multisite`) on top of per-site adaptive models:

``region-outage-failover``
    Two regions under a ``failover`` broker; the primary goes dark mid-run
    and all traffic must drain to the secondary without drops.
``cross-region-flash-crowd``
    A flash crowd spread over two regions by ``weighted-load`` brokering, so
    no single site's allocator faces the whole spike.
``price-arbitrage``
    A ``cheapest`` broker between an expensive nearby region and a distant
    cheap one: cost drops, latency pays the WAN penalty.
``edge-vs-core``
    A small edge site in front of a big core site under ``nearest-rtt``:
    edge-homed users stay local, the rest backhaul to the core.
``hotspot-spillover``
    A misweighted tiny site receives 4× its fair share under static
    weights; ``dynamic-load`` brokering with mid-slot spillover drains the
    overflow to the big site before admission control starts dropping.
``load-chase``
    A mid-run outage forces all traffic onto a small standby site;
    ``dynamic-load`` re-weighting (no spillover) shifts traffic back to the
    recovered primary while the standby's backlog drains.
``mixed-fleet-miscount``
    Two sites with (roughly) equal fleet-total capacity but inverted
    acceleration-group mixes, under an entirely un-promoted user
    population: the legacy fleet-scalar capacity signal splits traffic
    ~50/50 and drowns the low-tier-starved site's tiny low-tier slice,
    while the (default) group-resolved signal routes and spills by the
    capacity each request can actually use.

Three **fault-injection** scenarios exercise the deterministic fault plane
and its resilience mechanisms (:mod:`repro.faults`):

``spot-preemption-storm``
    A spot-priced site loses instances in a mid-run revocation storm;
    retry-with-failover moves killed work to the on-demand site and the
    remainder degrades to on-device execution instead of dropping.
``flaky-uplink``
    A single-site run whose access network turns hostile for the middle
    third (3× RTT, elevated attempt failure) on top of a baseline failure
    floor: exponential backoff rides attempts past the window's edge.
``stale-broker``
    The dynamic broker plans each slot against load snapshots delivered two
    boundaries late and lost outright a quarter of the time, while a modest
    failure floor keeps the retry machinery warm — control-plane degradation
    without any data-plane outage.

Scenarios registered here (or via :func:`register_scenario`) are addressable
by name from the CLI (``repro-accel scenario run <name>``) and the campaign
runner.
"""

from __future__ import annotations

from typing import Dict, List

from repro.faults.spec import (
    ControlPlaneFaults,
    DegradedWindow,
    FaultSpec,
    PreemptionWindow,
    RetryPolicy,
)
from repro.multisite.spec import MultiSiteSpec, OutageWindow, SiteSpec, SpilloverSpec
from repro.scenarios.spec import (
    CloudSpec,
    DeviceMixSpec,
    NetworkSpec,
    PolicySpec,
    ScenarioSpec,
    WorkloadSpec,
)

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, overwrite: bool = False) -> ScenarioSpec:
    """Add a scenario to the registry; name collisions require ``overwrite``."""
    if spec.name in _REGISTRY and not overwrite:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known scenarios: {list(_REGISTRY)}"
        ) from None


def builtin_specs() -> List[ScenarioSpec]:
    """All registered scenarios, in registration order."""
    return list(_REGISTRY.values())


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="paper-baseline",
        description="Section VI-C deployment scaled to 2 h: uniform arrivals, "
        "three groups, 1/50 static promotion",
        users=60,
        duration_hours=2.0,
        slot_minutes=30.0,
        workload=WorkloadSpec(pattern="uniform", target_requests=800),
    )
)

register_scenario(
    ScenarioSpec(
        name="flash-crowd",
        description="6x arrival spike mid-run that nearest-slot prediction "
        "has never seen",
        users=80,
        duration_hours=2.0,
        slot_minutes=20.0,
        workload=WorkloadSpec(
            pattern="flash-crowd",
            target_requests=900,
            burst_factor=6.0,
            burst_start=0.5,
            burst_duration=0.12,
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="diurnal",
        description="24 h day/night cycle peaking at 20:00 - the predictor's "
        "home turf",
        users=80,
        duration_hours=24.0,
        slot_minutes=60.0,
        workload=WorkloadSpec(
            pattern="diurnal",
            target_requests=1500,
            trough_factor=0.2,
            peak_hour=20.0,
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="bursty-poisson",
        description="on/off bursts shorter than the provisioning period, "
        "invisible in per-slot aggregates",
        users=60,
        duration_hours=2.0,
        slot_minutes=15.0,
        workload=WorkloadSpec(
            pattern="bursty",
            target_requests=900,
            burst_factor=5.0,
            burst_count=6,
            burst_duration=0.25,
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="heterogeneous-fleet",
        description="wearable/budget-heavy fleet with degradation-driven "
        "promotion instead of coin flips",
        users=70,
        duration_hours=2.0,
        slot_minutes=30.0,
        workload=WorkloadSpec(pattern="uniform", target_requests=800),
        devices=DeviceMixSpec(
            weights={
                "wearable": 4.0,
                "budget-phone": 3.0,
                "mid-range-phone": 2.0,
                "flagship-phone": 0.5,
                "tablet": 0.5,
            }
        ),
        policy=PolicySpec(promotion="threshold", promotion_threshold_ms=2400.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="price-spike",
        description="8x m4.4xlarge / 4x t2.large prices force the ILP toward "
        "many cheap instances",
        users=60,
        duration_hours=2.0,
        slot_minutes=30.0,
        workload=WorkloadSpec(pattern="poisson", target_requests=800),
        cloud=CloudSpec(
            price_multipliers={"m4.4xlarge": 8.0, "t2.large": 4.0},
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="degraded-3g",
        description="congested 3G access (2.5x RTT): network-dominated "
        "response times the allocator cannot fix",
        users=60,
        duration_hours=2.0,
        slot_minutes=30.0,
        workload=WorkloadSpec(pattern="uniform", target_requests=700),
        network=NetworkSpec(profile="degraded-3g", degradation=2.5),
        policy=PolicySpec(promotion="threshold", promotion_threshold_ms=4000.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="cold-history",
        description="short run with a long min_history bootstrap: the "
        "autoscaler stays reactive",
        users=40,
        duration_hours=1.0,
        slot_minutes=15.0,
        workload=WorkloadSpec(pattern="uniform", target_requests=500),
        policy=PolicySpec(min_history=6),
    )
)


# ---------------------------------------------------------------------------
# Multi-site federation scenarios
# ---------------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="region-outage-failover",
        description="primary region dark for the middle third of the run: "
        "failover brokering drains traffic to the secondary",
        users=50,
        duration_hours=1.5,
        slot_minutes=15.0,
        workload=WorkloadSpec(pattern="uniform", target_requests=700),
        sites=MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="region-a",
                    cloud=CloudSpec(instance_cap=16),
                    wan_rtt_ms=8.0,
                    population_share=2.0,
                    outages=(OutageWindow(start=1.0 / 3.0, end=2.0 / 3.0),),
                ),
                SiteSpec(
                    name="region-b",
                    cloud=CloudSpec(instance_cap=16),
                    wan_rtt_ms=35.0,
                    population_share=1.0,
                ),
            ),
            policy="failover",
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="cross-region-flash-crowd",
        description="6x spike spread over two regions by weighted-load "
        "brokering: neither allocator faces the whole surge",
        users=80,
        duration_hours=2.0,
        slot_minutes=20.0,
        workload=WorkloadSpec(
            pattern="flash-crowd",
            target_requests=1200,
            burst_factor=6.0,
            burst_start=0.5,
            burst_duration=0.12,
        ),
        sites=MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="us-east",
                    cloud=CloudSpec(instance_cap=14),
                    wan_rtt_ms=10.0,
                    population_share=1.0,
                ),
                SiteSpec(
                    name="eu-west",
                    cloud=CloudSpec(instance_cap=14),
                    wan_rtt_ms=45.0,
                    population_share=1.0,
                ),
            ),
            policy="weighted-load",
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="price-arbitrage",
        description="cheapest-site brokering between a 3x-priced nearby "
        "region and a cheap distant one: cost wins, latency pays the WAN",
        users=60,
        duration_hours=2.0,
        slot_minutes=30.0,
        workload=WorkloadSpec(pattern="poisson", target_requests=800),
        sites=MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="premium-near",
                    cloud=CloudSpec(instance_cap=20),
                    wan_rtt_ms=6.0,
                    price_multiplier=3.0,
                    population_share=1.0,
                ),
                SiteSpec(
                    name="budget-far",
                    cloud=CloudSpec(instance_cap=20),
                    wan_rtt_ms=70.0,
                    price_multiplier=0.6,
                    population_share=1.0,
                ),
            ),
            policy="cheapest",
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="edge-vs-core",
        description="small LTE edge site in front of a big core site under "
        "nearest-rtt brokering: edge users stay local, the rest backhaul",
        users=70,
        duration_hours=2.0,
        slot_minutes=30.0,
        workload=WorkloadSpec(pattern="uniform", target_requests=900),
        sites=MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="edge",
                    cloud=CloudSpec(
                        group_types={1: "t2.nano", 2: "t2.large"},
                        instance_cap=6,
                    ),
                    network=NetworkSpec(profile="lte"),
                    wan_rtt_ms=4.0,
                    population_share=3.0,
                ),
                SiteSpec(
                    name="core",
                    cloud=CloudSpec(instance_cap=24),
                    network=NetworkSpec(profile="lte"),
                    wan_rtt_ms=40.0,
                    population_share=1.0,
                ),
            ),
            policy="nearest-rtt",
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="hotspot-spillover",
        description="4x-misweighted tiny hotspot site: dynamic-load brokering "
        "plus mid-slot spillover drains the overflow before admission drops",
        users=60,
        duration_hours=0.25,
        slot_minutes=7.5,
        task_name="bubblesort",
        workload=WorkloadSpec(pattern="uniform", target_requests=14_000),
        # Single-group sites keep the broker's fleet-capacity signal exact:
        # every request is eligible for every instance of its site.
        sites=MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="hotspot",
                    cloud=CloudSpec(group_types={1: "t2.nano"}, instance_cap=2),
                    wan_rtt_ms=5.0,
                    weight=4.0,
                    population_share=2.0,
                ),
                SiteSpec(
                    name="overflow",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=12),
                    wan_rtt_ms=30.0,
                    weight=1.0,
                    population_share=1.0,
                ),
            ),
            policy="dynamic-load",
            spillover=SpilloverSpec(queue_limit_fraction=0.8, prefer="nearest-rtt"),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="load-chase",
        description="mid-run primary outage under dynamic-load re-weighting: "
        "traffic chases the recovered fleet while the standby's backlog drains",
        users=50,
        duration_hours=0.5,
        slot_minutes=7.5,
        task_name="bubblesort",
        workload=WorkloadSpec(pattern="uniform", target_requests=24_000),
        sites=MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="primary",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=12),
                    wan_rtt_ms=8.0,
                    weight=3.0,
                    population_share=2.0,
                    outages=(OutageWindow(start=0.25, end=0.5),),
                ),
                SiteSpec(
                    name="standby",
                    cloud=CloudSpec(group_types={1: "t2.nano"}, instance_cap=1),
                    wan_rtt_ms=25.0,
                    weight=1.0,
                    population_share=1.0,
                ),
            ),
            policy="dynamic-load",
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="mixed-fleet-miscount",
        description="inverted group mixes at equal fleet capacity: the "
        "group-resolved signal keeps un-promoted traffic off the "
        "low-tier-starved site that fleet scalars mis-weight",
        users=40,
        duration_hours=0.25,
        slot_minutes=3.75,
        task_name="bubblesort",
        workload=WorkloadSpec(pattern="uniform", target_requests=30_000),
        # Promotions off: the whole population stays un-promoted (group 1),
        # which keeps dynamic routing bit-identical across execution modes
        # and makes the miscount maximal - fleet totals are dominated by
        # high-tier capacity none of these users can touch.
        policy=PolicySpec(promotion="static", promotion_probability=0.0),
        sites=MultiSiteSpec(
            sites=(
                # `lean` caps out at one t2.nano (3 wu/ms for group 1) plus
                # one m4.4xlarge (41.5 wu/ms locked in group 2): ~93 % of
                # its fleet signal is capacity un-promoted traffic can
                # never use.
                SiteSpec(
                    name="lean",
                    cloud=CloudSpec(
                        group_types={1: "t2.nano", 2: "m4.4xlarge"},
                        instance_cap=2,
                    ),
                    wan_rtt_ms=5.0,
                    weight=1.0,
                    population_share=3.0,
                ),
                # `roomy` inverts the mix: its cap fills with t2.mediums
                # serving group 1 (~37.5 wu/ms) next to a single group-2
                # nano - roughly the same fleet total, almost all of it
                # usable by un-promoted traffic.
                SiteSpec(
                    name="roomy",
                    cloud=CloudSpec(
                        group_types={1: "t2.medium", 2: "t2.nano"},
                        instance_cap=6,
                        initial_instances_per_group=2,
                    ),
                    wan_rtt_ms=30.0,
                    weight=1.0,
                    population_share=1.0,
                ),
            ),
            policy="dynamic-load",
            spillover=SpilloverSpec(queue_limit_fraction=0.8, prefer="nearest-rtt"),
        ),
    )
)


# ---------------------------------------------------------------------------
# Fault-injection / resilience scenarios
# ---------------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="spot-preemption-storm",
        description="mid-run spot revocation storm on one site: retry with "
        "cross-site failover rescues killed work, the rest degrades to "
        "on-device execution",
        users=50,
        duration_hours=1.0,
        slot_minutes=15.0,
        workload=WorkloadSpec(pattern="uniform", target_requests=900),
        # Promotions off: static-brokered site assignment is fixed at plan
        # time, which is what lets the preemption window target the spot site
        # and keeps both execution modes bit-identical.
        policy=PolicySpec(promotion="static", promotion_probability=0.0),
        sites=MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="spot",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=10),
                    wan_rtt_ms=6.0,
                    weight=2.0,
                    population_share=2.0,
                ),
                SiteSpec(
                    name="on-demand",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=10),
                    wan_rtt_ms=22.0,
                    weight=1.0,
                    population_share=1.0,
                ),
            ),
            policy="weighted-load",
        ),
        faults=FaultSpec(
            preemptions=(
                PreemptionWindow(
                    start=0.35, end=0.65, kill_probability=0.6, site="spot"
                ),
            ),
            retry=RetryPolicy(
                max_attempts=3,
                attempt_timeout_ms=1_500.0,
                backoff_base_ms=200.0,
                reroute_on_retry=True,
                local_fallback=True,
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="flaky-uplink",
        description="hostile access network for the middle third (3x RTT, "
        "+25% attempt failure) over a 5% failure floor: backoff rides "
        "attempts past the window's edge",
        users=60,
        duration_hours=1.5,
        slot_minutes=15.0,
        workload=WorkloadSpec(pattern="uniform", target_requests=800),
        faults=FaultSpec(
            offload_failure_probability=0.05,
            degraded_windows=(
                DegradedWindow(
                    start=1.0 / 3.0,
                    end=2.0 / 3.0,
                    rtt_multiplier=3.0,
                    failure_probability=0.25,
                ),
            ),
            retry=RetryPolicy(
                max_attempts=4,
                attempt_timeout_ms=1_500.0,
                backoff_base_ms=250.0,
                local_fallback=True,
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="stale-broker",
        description="dynamic broker planning each slot against load snapshots "
        "2 boundaries late and lost 25% of the time, over a modest failure "
        "floor - control-plane degradation without a data-plane outage",
        users=50,
        duration_hours=0.5,
        slot_minutes=7.5,
        task_name="bubblesort",
        workload=WorkloadSpec(pattern="uniform", target_requests=12_000),
        policy=PolicySpec(promotion="static", promotion_probability=0.0),
        sites=MultiSiteSpec(
            sites=(
                SiteSpec(
                    name="near",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=8),
                    wan_rtt_ms=6.0,
                    weight=2.0,
                    population_share=2.0,
                ),
                SiteSpec(
                    name="far",
                    cloud=CloudSpec(group_types={1: "t2.medium"}, instance_cap=8),
                    wan_rtt_ms=28.0,
                    weight=1.0,
                    population_share=1.0,
                ),
            ),
            policy="dynamic-load",
            spillover=SpilloverSpec(queue_limit_fraction=0.8, prefer="nearest-rtt"),
        ),
        faults=FaultSpec(
            offload_failure_probability=0.04,
            control_plane=ControlPlaneFaults(
                snapshot_delay_slots=2,
                snapshot_loss_probability=0.25,
            ),
            retry=RetryPolicy(max_attempts=3, local_fallback=True),
        ),
    )
)
