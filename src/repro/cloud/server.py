"""Simulated cloud instance server.

A :class:`CloudInstance` is the discrete-event counterpart of one running EC2
instance hosting the paper's Dalvik-x86 surrogate.  Each offloaded request is
a job of some number of work units; jobs share the instance's processing
capacity through an egalitarian processor-sharing discipline
(:class:`~repro.simulation.queues.ProcessorSharingServer`).

Admission control reproduces the saturation behaviour of Fig. 8b/8c: each
instance admits at most ``admission_limit`` simultaneous requests.  Requests
beyond the limit are *dropped* (the "fail" series of Fig. 8c).
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.cloud.catalog import InstanceType
from repro.simulation.engine import SimulationEngine
from repro.simulation.queues import ProcessorSharingServer


def jittered_work_units(work_units, jitter_z, jitter_fraction):
    """Scale work by the jitter draw ``1 + z·fraction``, clamped to [0.05, 3].

    Accepts scalars or numpy arrays; this is the single definition of the
    service-jitter model shared by the scalar instance path and the batched
    executor, so the two execution modes cannot drift apart.
    """
    factor = 1.0 + jitter_z * jitter_fraction
    if isinstance(factor, float):
        # Scalar fast path for the per-request event loop.  For finite
        # floats min/max branching is bit-identical to np.clip, without the
        # ufunc dispatch overhead.
        if factor < 0.05:
            factor = 0.05
        elif factor > 3.0:
            factor = 3.0
        return work_units * factor
    return work_units * np.clip(factor, 0.05, 3.0)


class OffloadOutcome(NamedTuple):
    """The result of one offloaded request handled by an instance.

    Immutable; a named tuple because one is built per offloaded request.
    """

    request_id: int
    instance_id: str
    accepted: bool
    execution_time_ms: float
    completed_at_ms: float


#: What a named tuple's generated ``__new__`` returns, without entering it:
#: the per-request completion builds its outcome with this.
_new_tuple = tuple.__new__


class CloudInstance:
    """One running instance of a given :class:`~repro.cloud.catalog.InstanceType`."""

    _ids = itertools.count()

    def __init__(
        self,
        engine: SimulationEngine,
        instance_type: InstanceType,
        *,
        admission_limit: Optional[int] = None,
        instance_id: Optional[str] = None,
        ready_at_ms: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.instance_type = instance_type
        self.instance_id = instance_id or f"{instance_type.name}-{next(self._ids)}"
        profile = instance_type.profile
        # Default admission limit: the concurrency at which a median task from
        # the workload pool would exceed ~5 seconds, bounded to a sane range.
        if admission_limit is None:
            admission_limit = max(int(profile.effective_cores * 40), 100)
        self._server = ProcessorSharingServer(
            engine,
            service_rate_per_core=profile.speed_factor,
            cores=profile.service_lanes,
            name=self.instance_id,
        )
        # The per-request path reads these once per submit: the server's job
        # list (its length is the population; the server only mutates it in
        # place) and the profile's jitter and fixed overhead.
        self._jobs = self._server._callbacks
        self._jitter_fraction = profile.jitter_fraction
        self._base_overhead_ms = profile.base_overhead_ms
        self.admission_limit = admission_limit
        self.launched_at_ms = engine.now_ms
        # Boot delay: the window where the instance is billed and counted
        # against the account cap but not yet advertising serving capacity
        # (see Provisioner.boot_delay_ms).  Defaults to "ready at launch".
        self.ready_at_ms = (
            float(ready_at_ms) if ready_at_ms is not None else self.launched_at_ms
        )
        if self.ready_at_ms < self.launched_at_ms:
            raise ValueError(
                f"ready_at_ms ({self.ready_at_ms}) must not precede the launch "
                f"time ({self.launched_at_ms})"
            )
        self.terminated_at_ms: Optional[float] = None
        self.accepted_requests = 0
        self.dropped_requests = 0
        self.completed_requests = 0
        self._request_ids = itertools.count()

    @property
    def is_running(self) -> bool:
        """Whether the instance has not been terminated."""
        return self.terminated_at_ms is None

    @property
    def is_booting(self) -> bool:
        """Whether the instance is still inside its boot window.

        A booting instance is already billed and held against the account
        cap, but it advertises nothing to the federation broker's live-state
        protocol: the capacity and admission signals exclude it until
        ``ready_at_ms`` while the cap accounting includes it.  Intra-site
        dispatch is *not* gated on the boot window (the paper's single-site
        model launches instantly); the boot delay models how long a launch
        takes to show up as usable capacity in cross-site routing.
        """
        return self.is_running and self.engine.now_ms < self.ready_at_ms

    @property
    def in_service(self) -> int:
        """Number of requests currently executing on the instance."""
        return self._server.in_service

    @property
    def acceleration_level(self) -> int:
        return self.instance_type.acceleration_level

    def submit(
        self,
        work_units: float,
        on_complete: Callable[[OffloadOutcome], None],
        jitter_z: float,
    ) -> OffloadOutcome | None:
        """Submit one offloaded request.

        Returns ``None`` when the request is admitted (the outcome is
        delivered later through ``on_complete``), or an immediate rejected
        :class:`OffloadOutcome` when the request is dropped.  ``jitter_z`` is
        the request's pre-drawn standard-normal service-time jitter draw: the
        factor ``1 + z·jitter_fraction`` is a ``normal(1, jitter_fraction)``
        draw (see :func:`jittered_work_units`); ``0.0`` runs the work
        unjittered.
        """
        if self.terminated_at_ms is not None:
            raise RuntimeError(f"instance {self.instance_id} has been terminated")
        request_id = next(self._request_ids)
        clock = self.engine.clock
        if len(self._jobs) >= self.admission_limit:
            self.dropped_requests += 1
            return OffloadOutcome(request_id, self.instance_id, False, 0.0, clock._now_ms)
        self.accepted_requests += 1
        overhead = self._base_overhead_ms

        def _finished(sojourn_ms: float) -> None:
            self.completed_requests += 1
            on_complete(
                _new_tuple(
                    OffloadOutcome,
                    (request_id, self.instance_id, True, sojourn_ms + overhead, clock._now_ms),
                )
            )

        # Per-request jitter models variation in code paths and VM scheduling.
        self._server.submit(
            jittered_work_units(work_units, jitter_z, self._jitter_fraction), _finished
        )
        return None

    def terminate(self) -> None:
        """Mark the instance as terminated; no further submissions allowed."""
        if self.terminated_at_ms is None:
            self.terminated_at_ms = self.engine.now_ms

    def __repr__(self) -> str:
        return (
            f"CloudInstance(id={self.instance_id!r}, type={self.instance_type.name}, "
            f"level={self.acceleration_level}, in_service={self.in_service})"
        )
