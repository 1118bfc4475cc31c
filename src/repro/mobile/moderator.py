"""Client-side moderator: promotion policies.

The paper's architecture places the promotion decision on the mobile client:
"a client-side moderator component, which monitors the execution time of the
code in the application, and promotes the execution of code to a higher level
of acceleration when it detects that the response time of the application
starts to degrade" (Section I).  For the evaluation the paper uses a *static
probability of 1/50* to promote a user per request (Section VI-C3) and leaves
context-based policies as future work.

This module implements:

* :class:`StaticProbabilityPolicy` — the paper's 1/50 rule.
* :class:`ResponseTimeThresholdPolicy` — the mechanism the paper describes
  qualitatively ("if the processing of a task in a certain device requires
  more than t milliseconds, then the mobile promotes the user").
* :class:`BatteryAwarePolicy` — the future-work extension of Section VII-3:
  low battery pushes the device to a higher acceleration level to shorten the
  time the radio connection stays open.
* :class:`Moderator` — the component that applies a policy to a device after
  each completed request.

The threshold rule reads only the device's last
:data:`~repro.mobile.device.RECENT_RESPONSES` responses, so a ``window``
longer than that is rejected at construction.  For a batch, :meth:`Moderator.observe_many` records the responses first (the
battery drain included) and hands each policy the device's recent responses
as they stood before the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Protocol, Sequence

import numpy as np

from repro.mobile.device import MobileDevice, check_window


class PromotionDecision(NamedTuple):
    """The outcome of one promotion check.

    Immutable; a named tuple because one is returned per completed request.
    """

    promote: bool
    reason: str = ""


#: The shared "no promotion" outcomes, so a request that keeps its group
#: builds no new decision.
_KEEP = PromotionDecision(False)
_AT_HIGHEST = PromotionDecision(False, "already at the highest group")


class PromotionPolicy(Protocol):
    """Decides, after each completed request, whether to promote the device."""

    def decide(
        self,
        device: MobileDevice,
        response_time_ms: float,
        rng: np.random.Generator,
    ) -> PromotionDecision:
        """Return the promotion decision for this request."""
        ...


@dataclass(frozen=True)
class StaticProbabilityPolicy:
    """Promote with a fixed probability per completed request (paper default 1/50)."""

    probability: float = 1.0 / 50.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")

    def decide(
        self,
        device: MobileDevice,
        response_time_ms: float,
        rng: np.random.Generator,
    ) -> PromotionDecision:
        if rng.random() < self.probability:
            return PromotionDecision(True, f"static probability {self.probability:.4f}")
        return _KEEP

    def decide_many(
        self,
        device: MobileDevice,
        prior_ms: Sequence[float],
        responses_ms: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorised :meth:`decide`: one uniform draw per response.

        Consumes exactly one ``rng.random()`` per response, in order, so the
        stream state after a batch matches the scalar per-request path.
        """
        return rng.random(len(responses_ms)) < self.probability


@dataclass(frozen=True)
class ResponseTimeThresholdPolicy:
    """Promote when the recent mean response time exceeds a threshold.

    This is the degradation-detection behaviour the paper attributes to the
    moderator: promotion happens when the perceived response time "starts to
    degrade" beyond the application's tolerance ``threshold_ms``.
    """

    threshold_ms: float = 2000.0
    window: int = 5

    def __post_init__(self) -> None:
        if self.threshold_ms <= 0:
            raise ValueError(f"threshold_ms must be positive, got {self.threshold_ms}")
        check_window(self.window)

    def decide(
        self,
        device: MobileDevice,
        response_time_ms: float,
        rng: np.random.Generator,
    ) -> PromotionDecision:
        recent = device.recent_mean_response_ms(self.window)
        if recent is not None and recent > self.threshold_ms:
            return PromotionDecision(
                True, f"mean of last {self.window} responses {recent:.0f} ms > {self.threshold_ms:.0f} ms"
            )
        return _KEEP

    def decide_many(
        self,
        device: MobileDevice,
        prior_ms: Sequence[float],
        responses_ms: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorised :meth:`decide` over a batch of responses.

        ``prior_ms`` holds the device's recent responses from before the
        batch, oldest first.  The i-th decision uses the rolling window
        ending at the i-th new response, computed with one cumulative sum
        over the last ``window - 1`` prior responses and then the batch — no
        RNG is consumed, matching the scalar policy.
        """
        batch = len(responses_ms)
        if batch == 0:
            return np.zeros(0, dtype=bool)
        context = prior_ms[max(0, len(prior_ms) - (self.window - 1)):]
        tail = np.concatenate(
            (np.asarray(context, dtype=float), np.asarray(responses_ms, dtype=float))
        )
        sums = np.concatenate(([0.0], np.cumsum(tail)))
        end = len(context) + 1 + np.arange(batch)
        start = np.maximum(end - self.window, 0)
        means = (sums[end] - sums[start]) / (end - start)
        return means > self.threshold_ms


@dataclass(frozen=True)
class BatteryAwarePolicy:
    """Promote when the battery is low (Section VII-3 future-work policy).

    Below ``battery_threshold`` the device promotes with ``low_battery_probability``
    per request (to shorten connection-open time); above the threshold it falls
    back to the static probability.
    """

    battery_threshold: float = 0.2
    low_battery_probability: float = 0.25
    base_probability: float = 1.0 / 50.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.battery_threshold <= 1.0:
            raise ValueError(
                f"battery_threshold must be in [0, 1], got {self.battery_threshold}"
            )
        for name, value in (
            ("low_battery_probability", self.low_battery_probability),
            ("base_probability", self.base_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    def decide(
        self,
        device: MobileDevice,
        response_time_ms: float,
        rng: np.random.Generator,
    ) -> PromotionDecision:
        if device.battery.level <= self.battery_threshold:
            if rng.random() < self.low_battery_probability:
                return PromotionDecision(
                    True, f"battery at {device.battery.level:.0%} <= {self.battery_threshold:.0%}"
                )
            return _KEEP
        if rng.random() < self.base_probability:
            return PromotionDecision(True, "base static probability")
        return _KEEP

    def decide_many(
        self,
        device: MobileDevice,
        prior_ms: Sequence[float],
        responses_ms: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorised :meth:`decide`: one draw per response against the
        battery-dependent probability.

        The device's battery level is read once for the whole batch, after
        the batch's drain (the batched executor drains per slot rather than
        per request), which is the documented batched-mode approximation.
        """
        probability = (
            self.low_battery_probability
            if device.battery.level <= self.battery_threshold
            else self.base_probability
        )
        return rng.random(len(responses_ms)) < probability


class Moderator:
    """Applies a promotion policy to a device after each completed request."""

    def __init__(
        self,
        policy: Optional[PromotionPolicy] = None,
        *,
        max_group: int,
        rng: np.random.Generator,
    ) -> None:
        if max_group < 0:
            raise ValueError(f"max_group must be >= 0, got {max_group}")
        self.policy = policy if policy is not None else StaticProbabilityPolicy()
        self.max_group = max_group
        self._rng = rng
        self.promotions_made = 0

    def observe(
        self, device: MobileDevice, response_time_ms: float, now_ms: float
    ) -> PromotionDecision:
        """Record one completed request and possibly promote the device.

        Promotion is *sequential*: the device moves up exactly one group per
        promotion, matching the paper ("a user um is gradually promoted in a
        sequential manner to a higher acceleration group").
        """
        device.record_response(response_time_ms)
        if device.acceleration_group >= self.max_group:
            return _AT_HIGHEST
        decision = self.policy.decide(device, response_time_ms, self._rng)
        if decision.promote:
            device.promote(device.acceleration_group + 1, now_ms)
            self.promotions_made += 1
        return decision

    def observe_many(
        self,
        device: MobileDevice,
        responses_ms: np.ndarray,
        completed_at_ms: np.ndarray,
    ) -> int:
        """Batched :meth:`observe`: record a slot's worth of responses at once.

        Responses must be ordered by completion time.  The batch is recorded
        on the device first, then policies with a ``decide_many`` make all
        their promotion draws in one vectorised call, given the device's
        recent responses from before the batch; policies without it fall
        back to scalar ``decide`` per response.  Returns the number of
        promotions applied.

        One deliberate approximation versus the scalar path: when a device
        reaches the highest group mid-batch, the remaining responses of the
        batch have already consumed their decision draws (the scalar path
        stops drawing at that point).  Promotions themselves are applied
        identically.
        """
        values = np.asarray(responses_ms, dtype=float)
        stamps = np.asarray(completed_at_ms, dtype=float)
        if values.shape != stamps.shape:
            raise ValueError(
                f"response/completion arrays must align: {values.shape} vs {stamps.shape}"
            )
        decide_many = getattr(self.policy, "decide_many", None)
        if decide_many is None:
            # Scalar fallback for custom policies: interleave recording and
            # deciding exactly like observe(), so state-reading policies never
            # see responses that have not been delivered yet.
            promotions = 0
            for response, stamp in zip(values, stamps):
                if self.observe(device, float(response), float(stamp)).promote:
                    promotions += 1
            return promotions
        prior = list(device.recent_responses_ms)
        device.record_responses(values)
        if values.size == 0 or device.acceleration_group >= self.max_group:
            return 0
        promotions = 0
        decisions = decide_many(device, prior, values, self._rng)
        for index in np.flatnonzero(decisions):
            if device.acceleration_group >= self.max_group:
                break
            device.promote(device.acceleration_group + 1, float(stamps[index]))
            self.promotions_made += 1
            promotions += 1
        return promotions
