"""Instance catalog.

The paper deploys on Amazon EC2 (Ireland) general-purpose instances —
t2.nano, t2.micro, t2.small, t2.medium, t2.large and m4.10xlarge — plus a
compute-optimised c4.8xlarge added in Section VI-B and an m4.4xlarge used for
acceleration level 3 in the model evaluation (Section VI-C).

Each catalog entry records the vendor-facing attributes (vCPUs, memory,
hourly price) and the calibrated :class:`~repro.cloud.performance.PerformanceProfile`
used by the simulation.  The calibration encodes the paper's empirical
findings:

* the **acceleration-level grouping** of Fig. 4 — level 0 = {t2.micro},
  level 1 = {t2.nano, t2.small}, level 2 = {t2.medium, t2.large},
  level 3 = {m4.4xlarge, m4.10xlarge}, level 4 = {c4.8xlarge};
* the **t2.nano / t2.micro anomaly** of Fig. 6 — the nano server outperforms
  the (free-tier) micro server despite nominally smaller resources, which is
  why micro is demoted to group 0;
* the **acceleration ratios** of Fig. 5 — level 2 executes a static minimax
  task ≈1.25× faster than level 1, level 3 ≈1.73× faster than level 1 and
  ≈1.36× faster than level 2 (speed factors 1.0 / 1.25 / 1.73 / 2.2).

Hourly prices are the published EC2 eu-west-1 on-demand Linux prices from the
paper's time frame (2016–2017), in USD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator

from repro.cloud.performance import PerformanceProfile


@dataclass(frozen=True)
class InstanceType:
    """A purchasable cloud instance type."""

    name: str
    vcpus: int
    memory_gb: float
    price_per_hour: float
    acceleration_level: int
    profile: PerformanceProfile
    family: str = "general-purpose"
    free_tier: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("instance type name must be non-empty")
        if self.vcpus < 1:
            raise ValueError(f"vcpus must be >= 1, got {self.vcpus}")
        if self.memory_gb <= 0:
            raise ValueError(f"memory_gb must be positive, got {self.memory_gb}")
        if self.price_per_hour < 0:
            raise ValueError(f"price_per_hour must be >= 0, got {self.price_per_hour}")
        if self.acceleration_level < 0:
            raise ValueError(
                f"acceleration_level must be >= 0, got {self.acceleration_level}"
            )


class InstanceCatalog:
    """A queryable collection of :class:`InstanceType` entries."""

    def __init__(self, types: Iterable[InstanceType]) -> None:
        self._types: Dict[str, InstanceType] = {}
        for instance_type in types:
            if instance_type.name in self._types:
                raise ValueError(f"duplicate instance type {instance_type.name!r}")
            self._types[instance_type.name] = instance_type
        if not self._types:
            raise ValueError("catalog must contain at least one instance type")

    def __iter__(self) -> Iterator[InstanceType]:
        return iter(self._types.values())

    def __len__(self) -> int:
        return len(self._types)

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def get(self, name: str) -> InstanceType:
        """Look up an instance type by name."""
        try:
            return self._types[name]
        except KeyError:
            raise KeyError(
                f"unknown instance type {name!r}; known types: {sorted(self._types)}"
            ) from None

    def subset(self, names: Iterable[str]) -> "InstanceCatalog":
        """A new catalog restricted to the given type names."""
        return InstanceCatalog([self.get(name) for name in names])


def _build_default_catalog() -> InstanceCatalog:
    """The calibrated catalog of every instance type the paper evaluates."""
    types = [
        # ``effective_cores`` is the *effective* parallelism of the Dalvik-x86
        # surrogate on each type (VM dispatch and burstable-CPU credits keep
        # it below the nominal vCPU count for the large types); the values are
        # calibrated so that the capacity-based grouping of Section IV-C1
        # reproduces the paper's acceleration levels.
        InstanceType(
            name="t2.micro",
            vcpus=1,
            memory_gb=1.0,
            price_per_hour=0.0126,
            acceleration_level=0,
            free_tier=True,
            # The Fig. 6 anomaly: despite nominally larger resources than
            # t2.nano, the free-tier micro server degrades faster under load.
            profile=PerformanceProfile(speed_factor=0.90, effective_cores=2.0),
        ),
        InstanceType(
            name="t2.nano",
            vcpus=1,
            memory_gb=0.5,
            price_per_hour=0.0063,
            acceleration_level=1,
            profile=PerformanceProfile(speed_factor=1.00, effective_cores=3.0),
        ),
        InstanceType(
            name="t2.small",
            vcpus=1,
            memory_gb=2.0,
            price_per_hour=0.025,
            acceleration_level=1,
            profile=PerformanceProfile(speed_factor=1.00, effective_cores=3.2),
        ),
        InstanceType(
            name="t2.medium",
            vcpus=2,
            memory_gb=4.0,
            price_per_hour=0.05,
            acceleration_level=2,
            profile=PerformanceProfile(speed_factor=1.25, effective_cores=6.0),
        ),
        InstanceType(
            name="t2.large",
            vcpus=2,
            memory_gb=8.0,
            price_per_hour=0.101,
            acceleration_level=2,
            profile=PerformanceProfile(speed_factor=1.25, effective_cores=6.5),
        ),
        InstanceType(
            name="m4.4xlarge",
            vcpus=16,
            memory_gb=64.0,
            price_per_hour=0.888,
            acceleration_level=3,
            profile=PerformanceProfile(speed_factor=1.73, effective_cores=24.0),
        ),
        InstanceType(
            name="m4.10xlarge",
            vcpus=40,
            memory_gb=160.0,
            price_per_hour=2.22,
            acceleration_level=3,
            profile=PerformanceProfile(speed_factor=1.73, effective_cores=28.0),
        ),
        InstanceType(
            name="c4.8xlarge",
            vcpus=36,
            memory_gb=60.0,
            price_per_hour=1.811,
            acceleration_level=4,
            family="compute-optimized",
            profile=PerformanceProfile(speed_factor=2.20, effective_cores=44.0),
        ),
    ]
    return InstanceCatalog(types)


#: The calibrated default catalog used throughout the reproduction.
DEFAULT_CATALOG: InstanceCatalog = _build_default_catalog()
