"""Declarative fault and resilience specifications.

Everything here is plain frozen data: a :class:`FaultSpec` describes the
failure processes a scenario is subjected to, and its embedded
:class:`RetryPolicy` describes how offloading requests respond.  No module in
this file touches an RNG — all randomness is drawn later, by
:func:`repro.faults.overlay.build_fault_overlay`, from a dedicated named
stream, which is what keeps the base request plan byte-identical whether or
not faults are enabled.

Window semantics
----------------

:class:`DegradedWindow` and :class:`PreemptionWindow` bounds are fractions of
the scenario duration (like :class:`repro.multisite.spec.OutageWindow`), half
open ``[start, end)``.  A degraded window is *partial* failure: the network
still works, but round-trips stretch by ``rtt_multiplier`` and each offload
attempt inside the window fails with an extra ``failure_probability`` — in
contrast to an ``OutageWindow``, where the site is simply gone.  A preemption
window models spot-style capacity revocation: attempts landing inside it are
killed with ``kill_probability``; scoping one to a named ``site`` requires a
multi-site scenario with a *static* brokering policy, because only then is
the request→site assignment known before execution, when fault draws happen.

Retry semantics
---------------

The retry ladder for a request is: attempt, and on failure wait out the
failure-detection time (inflated by any degraded window, capped by
``attempt_timeout_ms``), back off exponentially with jitter, and attempt
again, up to ``max_attempts`` total attempts.  A request that exhausts its
attempts is *gracefully degraded*: with ``local_fallback`` it executes on the
device (the paper's no-offloading baseline path) and still counts as a
success; without it the request is dropped.  ``reroute_on_retry`` lets
multi-site retries land on the next spill-ranked site instead of hammering
the one that failed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple


def _check_fraction_window(start: float, end: float, kind: str) -> None:
    if not (0.0 <= start < end <= 1.0):
        raise ValueError(
            f"{kind} must satisfy 0 <= start < end <= 1, got [{start}, {end})"
        )


def _check_probability(value: float, name: str) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class DegradedWindow:
    """A partial-failure window: slow network plus elevated attempt failure."""

    start: float
    end: float
    rtt_multiplier: float = 2.0
    failure_probability: float = 0.0

    def __post_init__(self) -> None:
        _check_fraction_window(self.start, self.end, "DegradedWindow")
        if not self.rtt_multiplier >= 1.0:
            raise ValueError(
                f"rtt_multiplier must be >= 1, got {self.rtt_multiplier}"
            )
        _check_probability(self.failure_probability, "failure_probability")

    def contains(self, t_ms: float, duration_ms: float) -> bool:
        return self.start * duration_ms <= t_ms < self.end * duration_ms

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DegradedWindow":
        return cls(**dict(payload))


@dataclass(frozen=True)
class PreemptionWindow:
    """A spot-style revocation window: attempts inside it are killed."""

    start: float
    end: float
    kill_probability: float = 0.5
    site: Optional[str] = None

    def __post_init__(self) -> None:
        _check_fraction_window(self.start, self.end, "PreemptionWindow")
        _check_probability(self.kill_probability, "kill_probability")

    def contains(self, t_ms: float, duration_ms: float) -> bool:
        return self.start * duration_ms <= t_ms < self.end * duration_ms

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PreemptionWindow":
        return cls(**dict(payload))


@dataclass(frozen=True)
class ControlPlaneFaults:
    """Staleness/loss of the load snapshots the dynamic broker consumes.

    ``snapshot_delay_slots`` delivers the federation's ``SiteLoadState``-style
    capacity/admission snapshots ``k`` slot boundaries late (the broker plans
    slot ``k`` against the state of slot ``k - delay``); with probability
    ``snapshot_loss_probability`` a boundary's delivery is lost entirely and
    the broker re-plans against the last snapshot it received.  Availability
    (outage) truth stays fresh — only load telemetry is degraded.  Requires a
    ``dynamic-load`` brokering policy: the static broker never reads load.
    """

    snapshot_delay_slots: int = 0
    snapshot_loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.snapshot_delay_slots < 0:
            raise ValueError(
                "snapshot_delay_slots must be >= 0, got "
                f"{self.snapshot_delay_slots}"
            )
        _check_probability(
            self.snapshot_loss_probability, "snapshot_loss_probability"
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ControlPlaneFaults":
        return cls(**dict(payload))


@dataclass(frozen=True)
class RetryPolicy:
    """How an offloading request answers a failed attempt."""

    max_attempts: int = 3
    attempt_timeout_ms: float = 2_000.0
    backoff_base_ms: float = 200.0
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.1
    reroute_on_retry: bool = False
    local_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not self.attempt_timeout_ms > 0:
            raise ValueError(
                f"attempt_timeout_ms must be > 0, got {self.attempt_timeout_ms}"
            )
        if not self.backoff_base_ms >= 0:
            raise ValueError(
                f"backoff_base_ms must be >= 0, got {self.backoff_base_ms}"
            )
        if not self.backoff_multiplier >= 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not (0.0 <= self.backoff_jitter < 1.0):
            raise ValueError(
                f"backoff_jitter must be in [0, 1), got {self.backoff_jitter}"
            )

    def backoff_ms(self, attempt: int, jitter_unit: float) -> float:
        """Backoff after failed attempt ``attempt`` (1-based).

        ``jitter_unit`` is a uniform draw in ``[0, 1)``; the backoff is the
        exponential base scaled by ``1 ± backoff_jitter``.
        """
        scale = 1.0 + self.backoff_jitter * (2.0 * jitter_unit - 1.0)
        return (
            self.backoff_base_ms
            * self.backoff_multiplier ** (attempt - 1)
            * scale
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RetryPolicy":
        return cls(**dict(payload))


@dataclass(frozen=True)
class FaultSpec:
    """The full fault plane for one scenario, plus its resilience answer.

    ``offload_failure_probability`` applies to every attempt everywhere;
    degraded windows and preemption windows add on top (clipped to 1).
    ``failure_detection_ms`` is how long a failed attempt burns before the
    client gives up on it — stretched by degraded-network multipliers and
    capped by the retry policy's per-attempt timeout.

    ``lenient_outages`` restores the pre-fault-plane ``OutageWindow``
    semantics (requests already in flight at onset drain normally).  The
    default, when a ``FaultSpec`` is present, is *strict*: in-flight requests
    at onset are killed and re-routed/degraded through the retry ladder.
    Scenarios without a ``FaultSpec`` keep the legacy lenient behavior.
    """

    offload_failure_probability: float = 0.0
    failure_detection_ms: float = 250.0
    preemptions: Tuple[PreemptionWindow, ...] = ()
    degraded_windows: Tuple[DegradedWindow, ...] = ()
    control_plane: Optional[ControlPlaneFaults] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    lenient_outages: bool = False

    def __post_init__(self) -> None:
        _check_probability(
            self.offload_failure_probability, "offload_failure_probability"
        )
        if not self.failure_detection_ms >= 0:
            raise ValueError(
                f"failure_detection_ms must be >= 0, got {self.failure_detection_ms}"
            )
        object.__setattr__(
            self,
            "preemptions",
            tuple(
                PreemptionWindow.from_dict(w) if isinstance(w, Mapping) else w
                for w in self.preemptions
            ),
        )
        object.__setattr__(
            self,
            "degraded_windows",
            tuple(
                DegradedWindow.from_dict(w) if isinstance(w, Mapping) else w
                for w in self.degraded_windows
            ),
        )
        if isinstance(self.control_plane, Mapping):
            object.__setattr__(
                self,
                "control_plane",
                ControlPlaneFaults.from_dict(self.control_plane),
            )
        if isinstance(self.retry, Mapping):
            object.__setattr__(self, "retry", RetryPolicy.from_dict(self.retry))

    def without_resilience(self) -> "FaultSpec":
        """The same fault plane with retries and local fallback disabled.

        This is the no-retry arm of an A/B comparison: because fault draws
        are positionally stable per attempt round, first-attempt outcomes are
        identical between the two arms at equal seed.
        """
        return dataclasses.replace(
            self,
            retry=dataclasses.replace(
                self.retry,
                max_attempts=1,
                reroute_on_retry=False,
                local_fallback=False,
            ),
        )

    @property
    def has_faults(self) -> bool:
        """Whether any failure process can actually fire."""
        return (
            self.offload_failure_probability > 0.0
            or any(w.kill_probability > 0.0 for w in self.preemptions)
            or any(
                w.failure_probability > 0.0 or w.rtt_multiplier > 1.0
                for w in self.degraded_windows
            )
            or self.control_plane is not None
        )

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        if self.control_plane is None:
            payload.pop("control_plane")
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        return cls(**dict(payload))
