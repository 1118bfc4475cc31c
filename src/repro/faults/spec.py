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
the scenario duration, half open ``[start, end)``: like
:class:`repro.multisite.spec.OutageWindow` they extend
:class:`repro.scenarios.rules.FractionWindow`.  A degraded window is *partial* failure: the network
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
again, up to ``max_attempts`` total attempts (at most :data:`MAX_ATTEMPTS`).
A request that exhausts its attempts is *gracefully degraded*: with
``local_fallback`` it executes on the device (the paper's no-offloading
baseline path) and still counts as a success; without it the request is
dropped.  ``reroute_on_retry`` lets
multi-site retries land on the next spill-ranked site instead of hammering
the one that failed.

Validation
----------

Each numeric field declares its rule next to it and construction checks them
through :func:`repro.scenarios.rules.check`: numbers must be finite, integer
fields integral, and a bad value raises ``"<field> must be <rule>, got
<value>"``.  Nested sections may be given in their dict form.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.scenarios.rules import FractionWindow, check, coerce, integer, real


@dataclass(frozen=True)
class DegradedWindow(FractionWindow):
    """A partial-failure window: slow network plus elevated attempt failure."""

    rtt_multiplier: float = real(2.0, ge=1.0)
    failure_probability: float = real(0.0, ge=0.0, le=1.0)


@dataclass(frozen=True)
class PreemptionWindow(FractionWindow):
    """A spot-style revocation window: attempts inside it are killed."""

    kill_probability: float = real(0.5, ge=0.0, le=1.0)
    site: Optional[str] = None


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

    snapshot_delay_slots: int = integer(0, ge=0)
    snapshot_loss_probability: float = real(0.0, ge=0.0, le=1.0)

    def __post_init__(self) -> None:
        check(self)


#: The most attempts a retry policy may allow: the fault overlay keeps each
#: request's attempt count in one signed byte.
MAX_ATTEMPTS = 127


@dataclass(frozen=True)
class RetryPolicy:
    """How an offloading request answers a failed attempt."""

    max_attempts: int = integer(3, ge=1, le=MAX_ATTEMPTS)
    attempt_timeout_ms: float = real(2_000.0, gt=0.0)
    backoff_base_ms: float = real(200.0, ge=0.0)
    backoff_multiplier: float = real(2.0, ge=1.0)
    backoff_jitter: float = real(0.1, ge=0.0, lt=1.0)
    reroute_on_retry: bool = False
    local_fallback: bool = True

    def __post_init__(self) -> None:
        check(self)

    def backoff_ms(self, attempt: int, jitter_unit: float) -> float:
        """Backoff after failed attempt ``attempt`` (1-based).

        ``jitter_unit`` is a uniform draw in ``[0, 1)`` (or an array of
        them); the backoff is the exponential base scaled by
        ``1 ± backoff_jitter``.
        """
        scale = 1.0 + self.backoff_jitter * (2.0 * jitter_unit - 1.0)
        return (
            self.backoff_base_ms
            * self.backoff_multiplier ** (attempt - 1)
            * scale
        )


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

    offload_failure_probability: float = real(0.0, ge=0.0, le=1.0)
    failure_detection_ms: float = real(250.0, ge=0.0)
    preemptions: Tuple[PreemptionWindow, ...] = ()
    degraded_windows: Tuple[DegradedWindow, ...] = ()
    control_plane: Optional[ControlPlaneFaults] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    lenient_outages: bool = False

    def __post_init__(self) -> None:
        check(self)
        coerce(self, "preemptions", PreemptionWindow, many=True)
        coerce(self, "degraded_windows", DegradedWindow, many=True)
        coerce(self, "control_plane", ControlPlaneFaults)
        coerce(self, "retry", RetryPolicy)

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
