"""Per-site runtime stacks and the federation that coordinates them.

Each :class:`SiteRuntime` is the full serving stack of one site — its priced
instance catalog, back-end pool, provisioner, **its own**
:class:`~repro.core.model.AdaptiveModel` and predictive autoscaler, its
access-network channel and (in event mode) its own SDN front-end.  The
:class:`Federation` owns one runtime per site plus the cross-site helpers the
executors need (clamp tables, availability, aggregate cost).

Sites are deliberately independent: prediction histories, allocation plans
and billing never mix across sites, exactly like the FLICU-style multi-site
deployments in the related work where each site trains on local traffic and
only the thin broker layer is global.  A single deployment is therefore just
the one-site case: a spec without ``sites:`` builds an *implicit* federation
(see :func:`build_federation`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog
from repro.cloud.provisioner import Provisioner
from repro.core.allocation import build_group_options
from repro.core.model import AdaptiveModel
from repro.core.prediction import WorkloadPredictor
from repro.core.timeslots import TimeSlotHistory
from repro.multisite.spec import MultiSiteSpec, SiteSpec
from repro.network.channel import CommunicationChannel
from repro.scenarios.spec import ScenarioSpec
from repro.sdn.accelerator import SDNAccelerator
from repro.sdn.autoscaler import Autoscaler
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import RandomStreams


def build_site_catalog(site: SiteSpec) -> InstanceCatalog:
    """The site's catalog: demanded types with site-level pricing applied.

    The site-wide ``price_multiplier`` (regional pricing) compounds with the
    per-type multipliers of the site's :class:`CloudSpec`, so the allocator
    optimises against the prices this site actually pays.
    """
    types = []
    for type_name in site.cloud.group_types.values():
        instance_type = DEFAULT_CATALOG.get(type_name)
        multiplier = site.price_multiplier * site.cloud.price_multipliers.get(
            type_name, 1.0
        )
        if multiplier != 1.0:
            instance_type = dataclasses.replace(
                instance_type,
                price_per_hour=instance_type.price_per_hour * multiplier,
            )
        types.append(instance_type)
    return InstanceCatalog(types)


@dataclass
class SiteRuntime:
    """The complete serving stack of one federation site."""

    index: int
    spec: SiteSpec
    catalog: InstanceCatalog
    backend: BackendPool
    provisioner: Provisioner
    model: AdaptiveModel
    autoscaler: Autoscaler
    channel: CommunicationChannel
    level_for_type: Dict[str, int]
    #: Telemetry name prefix of this site's fleet series and serving-stack
    #: metrics (``site.<name>``; empty for the implicit site).
    metric_prefix: str
    #: The site's SDN front-end; the event executor builds it for its run.
    accelerator: Optional[SDNAccelerator] = None
    utilization_samples: List[float] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    def lowest_group(self) -> int:
        return min(self.spec.cloud.group_types)

    def highest_group(self) -> int:
        return max(self.spec.cloud.group_types)

    def total_cost(self) -> float:
        """The site's provisioning bill so far (running instances included)."""
        return self.provisioner.total_cost(include_running=True)

    def capacity_by_group(self, group_axis: "Sequence[int]") -> np.ndarray:
        """Serving rate per acceleration group, in work units per ms.

        One fluid core of an instance retires ``speed_factor`` work units
        per millisecond; summing per group over the running (and booted —
        instances still inside their boot window serve nothing yet) fleet
        gives the site's per-group fluid-limit capacity, laid out over the
        federation-wide ``group_axis``.  This is the live signal the
        ``dynamic-load`` broker re-weights routing with at slot boundaries:
        a request only ever executes on the group that serves its user's
        promotion level, so the eligible capacity is the group's column, not
        the fleet total.  Groups the site does not serve stay zero.
        """
        column = {int(group): index for index, group in enumerate(group_axis)}
        rate = np.zeros(len(column), dtype=float)
        for group, instances in self.backend.groups.items():
            index = column.get(int(group))
            if index is None:
                continue
            for instance in instances:
                if not instance.is_running or instance.is_booting:
                    continue
                profile = instance.instance_type.profile
                rate[index] += profile.fluid_cores * profile.speed_factor
        return rate

    def remaining_instance_cap(self) -> int:
        """How many more instances this site's account cap still allows.

        Counts every *launched* instance against the cap, booting ones
        included: an instance inside its boot window already occupies a cap
        slot even though it advertises no capacity yet, so counting only
        ready instances would let the broker see the same in-flight launch
        twice — once as booked headroom, once as a free slot.
        """
        return max(self.spec.cloud.instance_cap - self.provisioner.launched_count, 0)

    def admission_by_group(self, group_axis: "Sequence[int]") -> np.ndarray:
        """Concurrent-request admission ceiling per group over ``group_axis``.

        The per-group sum of the running (non-booting) instances' admission
        limits — the saturation ceiling the dynamic broker's spillover guard
        keeps its per-group in-flight estimate below.
        """
        column = {int(group): index for index, group in enumerate(group_axis)}
        total = np.zeros(len(column), dtype=np.int64)
        for group, instances in self.backend.groups.items():
            index = column.get(int(group))
            if index is None:
                continue
            for instance in instances:
                if instance.is_running and not instance.is_booting:
                    total[index] += int(instance.admission_limit)
        return total

    def sample_utilization(self, in_service_at) -> "tuple[float, float]":
        """Record one core-occupancy sample over the site's running fleet.

        ``in_service_at`` maps an instance to its current in-service count
        (the two executors track this differently).  Returns the site's
        ``(busy, cores)`` pair so callers can fold the same walk into a
        federation-wide sample without re-iterating the fleet.
        """
        busy = 0.0
        cores = 0.0
        for instances in self.backend.groups.values():
            for instance in instances:
                if not instance.is_running:
                    continue
                instance_cores = instance.instance_type.profile.fluid_cores
                busy += min(float(in_service_at(instance)), instance_cores)
                cores += instance_cores
        if cores > 0:
            self.utilization_samples.append(busy / cores)
        return busy, cores


def build_site_runtime(
    *,
    index: int,
    site: SiteSpec,
    scenario: ScenarioSpec,
    engine: SimulationEngine,
    streams: RandomStreams,
    task,
    stream_prefix: str,
    metric_prefix: str,
) -> SiteRuntime:
    """Assemble one site's stack from its spec.

    The site's channel draws from the named stream
    ``<stream_prefix>network``; ``metric_prefix`` names its telemetry.
    """
    from repro.scenarios.runner import build_channel  # local: avoids module cycle

    slot_ms = scenario.slot_length_ms
    rng_network = streams.stream(f"{stream_prefix}network")

    catalog = build_site_catalog(site)
    backend = BackendPool()
    provisioner = Provisioner(
        engine,
        catalog,
        instance_cap=site.cloud.instance_cap,
        boot_delay_ms=site.cloud.boot_delay_ms,
    )
    level_for_type = {name: group for group, name in site.cloud.group_types.items()}
    for group, type_name in site.cloud.group_types.items():
        for _ in range(site.cloud.initial_instances_per_group):
            backend.add_instance(provisioner.launch(type_name), group)

    options = build_group_options(
        catalog,
        level_for_type=level_for_type,
        work_units=task.work_units,
        response_threshold_ms=site.cloud.response_threshold_ms,
    )
    predictor = WorkloadPredictor(
        TimeSlotHistory(slot_length_ms=slot_ms),
        strategy=scenario.policy.predictor_strategy,
        min_history=max(scenario.policy.min_history - 1, 1),
    )
    model = AdaptiveModel(
        options,
        slot_length_ms=slot_ms,
        instance_cap=site.cloud.instance_cap,
        predictor=predictor,
    )
    autoscaler = Autoscaler(
        model,
        provisioner,
        backend,
        level_for_type=level_for_type,
        minimum_per_group=1,
    )
    channel = build_channel(site.network, rng_network)
    return SiteRuntime(
        index=index,
        spec=site,
        catalog=catalog,
        backend=backend,
        provisioner=provisioner,
        model=model,
        autoscaler=autoscaler,
        channel=channel,
        level_for_type=level_for_type,
        metric_prefix=metric_prefix,
    )


class Federation:
    """One runtime per site plus federation-wide helpers.

    ``implicit`` marks the one-site stand-in for a spec without ``sites:``:
    it has nothing to broker and is reported as a single-site run.
    """

    def __init__(
        self, spec: MultiSiteSpec, sites: List[SiteRuntime], *, implicit: bool = False
    ) -> None:
        if len(spec.sites) != len(sites):
            raise ValueError(
                f"spec declares {len(spec.sites)} sites but {len(sites)} runtimes given"
            )
        self.spec = spec
        self.sites = list(sites)
        self.implicit = implicit

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def site(self, index: int) -> SiteRuntime:
        return self.sites[index]

    def highest_group(self) -> int:
        """The highest acceleration group declared anywhere in the federation."""
        return max(site.highest_group() for site in self.sites)

    def group_axis(self) -> "tuple[int, ...]":
        """The federation-wide group axis (the snapshot matrix columns).

        Delegates to :attr:`MultiSiteSpec.group_axis` so the runtimes, the
        broker and the snapshots all share one definition of the columns.
        """
        return self.spec.group_axis

    def total_cost(self) -> float:
        """Federation-wide provisioning bill."""
        return sum(site.total_cost() for site in self.sites)

    def total_scaling_actions(self) -> int:
        return sum(len(site.autoscaler.actions) for site in self.sites)

    def mean_access_rtt_ms(self) -> np.ndarray:
        """Expected access RTT per site (the broker's nearest-rtt input)."""
        return np.asarray(
            [site.channel.access_model.mean_rtt_ms() for site in self.sites],
            dtype=float,
        )

    def capacity_snapshot(self) -> np.ndarray:
        """Live (site × group) serving-rate matrix of the current fleets.

        Rows follow site declaration order, columns the federation-wide
        :meth:`group_axis`.  Both executors hand this to the dynamic broker
        at every slot boundary, *after* the previous boundary's autoscaling
        actions — the broker therefore chases the fleet the autoscalers
        actually built, not the forecast the plan-time partition would have
        used.  Summing each row recovers the legacy fleet-scalar signal
        (the degenerate single-group case).
        """
        axis = self.group_axis()
        return np.stack([site.capacity_by_group(axis) for site in self.sites])

    def admission_snapshot(self) -> np.ndarray:
        """Live (site × group) admission-capacity matrix (requests before drops)."""
        axis = self.group_axis()
        return np.stack([site.admission_by_group(axis) for site in self.sites])


def build_federation(
    *,
    scenario: ScenarioSpec,
    engine: SimulationEngine,
    streams: RandomStreams,
    task,
) -> Federation:
    """Build every site runtime of a scenario's federation.

    A spec without ``sites:`` runs as an implicit one-site federation,
    derived from the spec rather than configured (and never written back
    into it, so ``spec_hash`` is unchanged): the site takes the scenario's
    cloud and network, has no WAN RTT and no outages, and its channel draws
    from the single-site stream name ``scenario-network``.
    """
    implicit = scenario.sites is None
    if implicit:
        spec = MultiSiteSpec(
            sites=(
                SiteSpec(
                    name=scenario.name, cloud=scenario.cloud, network=scenario.network
                ),
            ),
            policy="failover",
        )
    else:
        spec = scenario.sites
    runtimes = [
        build_site_runtime(
            index=index,
            site=site,
            scenario=scenario,
            engine=engine,
            streams=streams,
            task=task,
            stream_prefix="scenario-" if implicit else f"site-{site.name}-",
            metric_prefix="" if implicit else f"site.{site.name}",
        )
        for index, site in enumerate(spec.sites)
    ]
    return Federation(spec, runtimes, implicit=implicit)
