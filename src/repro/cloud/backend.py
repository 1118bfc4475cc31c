"""Back-end pool of instances grouped by acceleration level.

The back-end is the "pool of computational resources" in Fig. 2 of the paper:
a set of running instances, each assigned to an acceleration group.  The
SDN-accelerator routes each offloaded request to the group the requesting
device currently belongs to; within a group, this reproduction dispatches to
the least-loaded instance (the paper leaves intra-group balancing to the cloud
vendor's front-end, e.g. Amazon Autoscale).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cloud.server import CloudInstance, OffloadOutcome


class BackendPool:
    """Running instances organised into acceleration groups."""

    def __init__(self) -> None:
        self._groups: Dict[int, List[CloudInstance]] = {}
        # Sorted non-empty levels, recomputed only when membership changes —
        # every dispatch consults the level list, scaling actions are rare.
        self._levels_cache: Optional[List[int]] = None

    @property
    def groups(self) -> Dict[int, List[CloudInstance]]:
        """Mapping of acceleration level to the instances serving it."""
        return {level: list(instances) for level, instances in self._groups.items()}

    @property
    def levels(self) -> List[int]:
        """Sorted acceleration levels that currently have at least one instance."""
        if self._levels_cache is None:
            self._levels_cache = sorted(
                level for level, instances in self._groups.items() if instances
            )
        return list(self._levels_cache)

    def add_instance(self, instance: CloudInstance, level: Optional[int] = None) -> None:
        """Register ``instance`` under an acceleration level.

        The level defaults to the instance type's catalogued level, but can be
        overridden — the paper itself re-assigns t2.micro to group 0 after
        observing the Fig. 6 anomaly.
        """
        level = instance.acceleration_level if level is None else level
        if level < 0:
            raise ValueError(f"acceleration level must be >= 0, got {level}")
        self._groups.setdefault(level, []).append(instance)
        self._levels_cache = None

    def remove_instance(self, instance: CloudInstance) -> None:
        """Remove ``instance`` from whichever group holds it."""
        for instances in self._groups.values():
            if instance in instances:
                instances.remove(instance)
                self._levels_cache = None
                return
        raise KeyError(f"instance {instance.instance_id!r} is not in the pool")

    def instances_for_level(self, level: int) -> List[CloudInstance]:
        """All running instances serving acceleration level ``level``."""
        return [i for i in self._groups.get(level, []) if i.is_running]

    def clamp_level(self, level: int) -> int:
        """Clamp a requested level to the nearest level that has capacity.

        A device may request a level for which no instance is currently
        provisioned (e.g. just after a re-allocation); the request is served by
        the nearest provisioned level, preferring higher levels.
        """
        if self._groups.get(level):
            # Fast path: the requested level is provisioned (the steady state
            # between re-allocations) — no need to materialise the level list.
            return level
        levels = self.levels
        if not levels:
            raise ValueError("back-end pool is empty")
        if level in levels:
            return level
        higher = [l for l in levels if l > level]
        if higher:
            return higher[0]
        return levels[-1]

    def select_instance(self, level: int) -> CloudInstance:
        """Pick the least-loaded running instance of the given group."""
        best: Optional[CloudInstance] = None
        best_load = 0
        for instance in self._groups.get(level, ()):
            # ``is_running`` and ``in_service`` without their property hops.
            if instance.terminated_at_ms is not None:
                continue
            load = len(instance._jobs)
            if best is None or load < best_load:
                best = instance
                best_load = load
        if best is None:
            raise KeyError(f"no running instance serves acceleration level {level}")
        return best

    def dispatch(
        self,
        level: int,
        work_units: float,
        on_complete: Callable[[OffloadOutcome], None],
        jitter_z: float,
    ) -> Optional[OffloadOutcome]:
        """Route one request to the least-loaded instance of ``level``.

        Returns ``None`` on admission (completion arrives via ``on_complete``)
        or an immediate rejected outcome when the chosen instance drops the
        request.  ``jitter_z`` is the request's pre-drawn service-time jitter
        draw, forwarded to the instance (see :meth:`CloudInstance.submit`).
        """
        instance = self.select_instance(self.clamp_level(level))
        return instance.submit(work_units, on_complete, jitter_z=jitter_z)
