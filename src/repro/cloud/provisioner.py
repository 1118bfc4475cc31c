"""Instance provisioning and hourly billing.

The paper's allocation model assumes the utility-computing billing of public
clouds (Section IV): instances are billed per (started) hour at a type-specific
price, and a standard account can run at most ``CC`` instances at once
(Amazon's historical default of 20 on-demand instances).

:class:`Provisioner` tracks running instances, enforces the account cap and
accumulates the provisioning cost, so experiments can report the cost of an
allocation policy alongside its performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.cloud.catalog import InstanceCatalog
from repro.cloud.server import CloudInstance
from repro.simulation.clock import MILLISECONDS_PER_HOUR
from repro.simulation.engine import SimulationEngine

#: Default account-level cap on simultaneously running on-demand instances.
DEFAULT_INSTANCE_CAP = 20


class ProvisioningError(RuntimeError):
    """Raised when a launch request cannot be satisfied."""


@dataclass(frozen=True)
class BillingRecord:
    """One billed instance-lifetime."""

    instance_id: str
    instance_type: str
    launched_at_ms: float
    terminated_at_ms: float
    billed_hours: int
    cost: float


class Provisioner:
    """Launches, terminates and bills simulated cloud instances."""

    def __init__(
        self,
        engine: SimulationEngine,
        catalog: InstanceCatalog,
        *,
        instance_cap: int = DEFAULT_INSTANCE_CAP,
        boot_delay_ms: float = 0.0,
    ) -> None:
        if instance_cap < 1:
            raise ValueError(f"instance_cap must be >= 1, got {instance_cap}")
        if boot_delay_ms < 0:
            raise ValueError(f"boot_delay_ms must be >= 0, got {boot_delay_ms}")
        self.engine = engine
        self.catalog = catalog
        self.instance_cap = instance_cap
        self.boot_delay_ms = boot_delay_ms
        self._running: Dict[str, CloudInstance] = {}
        self._billing: List[BillingRecord] = []

    @property
    def running_instances(self) -> List[CloudInstance]:
        """Currently running instances."""
        return list(self._running.values())

    @property
    def running_count(self) -> int:
        """Instances past their boot window (launched and actually serving)."""
        return sum(
            1 for instance in self._running.values() if not instance.is_booting
        )

    @property
    def launched_count(self) -> int:
        """Every non-terminated instance, booting ones included.

        This is the number the account cap is enforced against — an instance
        in its boot window already occupies a cap slot (and bills), so any
        headroom signal derived from the cap must subtract it too, or
        in-flight launches get double-counted as free capacity.
        """
        return len(self._running)

    def launch(self, type_name: str) -> CloudInstance:
        """Launch one instance of ``type_name``.

        Raises
        ------
        ProvisioningError
            If the account instance cap would be exceeded.
        """
        if len(self._running) >= self.instance_cap:
            raise ProvisioningError(
                f"account cap of {self.instance_cap} running instances reached"
            )
        instance_type = self.catalog.get(type_name)
        instance = CloudInstance(
            self.engine,
            instance_type,
            ready_at_ms=self.engine.now_ms + self.boot_delay_ms,
        )
        self._running[instance.instance_id] = instance
        return instance

    def terminate(self, instance: CloudInstance) -> BillingRecord:
        """Terminate ``instance`` and record its bill.

        Billing follows the per-started-hour model the paper assumes: a
        59-minute lifetime bills one hour, a 61-minute lifetime bills two.
        """
        if instance.instance_id not in self._running:
            raise KeyError(f"instance {instance.instance_id!r} is not running")
        instance.terminate()
        del self._running[instance.instance_id]
        lifetime_ms = instance.terminated_at_ms - instance.launched_at_ms
        billed_hours = max(1, int(np.ceil(lifetime_ms / MILLISECONDS_PER_HOUR)))
        record = BillingRecord(
            instance_id=instance.instance_id,
            instance_type=instance.instance_type.name,
            launched_at_ms=instance.launched_at_ms,
            terminated_at_ms=instance.terminated_at_ms,
            billed_hours=billed_hours,
            cost=billed_hours * instance.instance_type.price_per_hour,
        )
        self._billing.append(record)
        return record

    def total_cost(self, include_running: bool = True) -> float:
        """Total provisioning cost in USD.

        When ``include_running`` is true, running instances are billed as if
        terminated now (per-started-hour), which is the figure an operator
        would see on the current bill.
        """
        cost = sum(record.cost for record in self._billing)
        if include_running:
            now = self.engine.now_ms
            for instance in self._running.values():
                lifetime_ms = max(now - instance.launched_at_ms, 0.0)
                billed_hours = max(1, int(np.ceil(lifetime_ms / MILLISECONDS_PER_HOUR)))
                cost += billed_hours * instance.instance_type.price_per_hour
        return cost

    def running_by_type(self) -> Dict[str, int]:
        """Count of running instances per type name."""
        counts: Dict[str, int] = {}
        for instance in self._running.values():
            counts[instance.instance_type.name] = counts.get(instance.instance_type.name, 0) + 1
        return counts
