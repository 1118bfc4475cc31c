"""Battery model.

The request traces of the paper include the device's battery level
(`<timestamp, user-id, acceleration-group, battery-level, round-trip-time>`),
and Section VII-3 sketches a battery-aware promotion policy as future work:
as the battery drains, the device promotes itself to a higher acceleration
level so that the network connection stays open for a shorter time.

This module provides a deliberately simple linear-drain battery model with a
per-request communication cost, sufficient to drive that policy.  The
adaptive model never reads the battery field, so no request record keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BatteryModel:
    """A linear battery drain model.

    Parameters
    ----------
    level:
        Current state of charge in ``[0, 1]``.
    offload_cost_per_second:
        Fraction of capacity drained per second of open connection while an
        offloaded request is in flight (radio + screen).
    """

    level: float = 1.0
    offload_cost_per_second: float = 0.00002

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"level must be in [0, 1], got {self.level}")
        if self.offload_cost_per_second < 0:
            raise ValueError(
                f"offload_cost_per_second must be >= 0, got {self.offload_cost_per_second}"
            )

    def drain_offload(self, connection_open_ms: float) -> float:
        """Drain the battery for one offloaded request; return the new level.

        The dominant client-side cost of a homogeneous-model offload is
        keeping the radio connection open while waiting for the result, so
        the drain scales with the request's response time.
        """
        if not connection_open_ms >= 0:
            raise ValueError(f"connection_open_ms must be >= 0, got {connection_open_ms}")
        drained = (connection_open_ms / 1000.0) * self.offload_cost_per_second
        self.level = max(0.0, self.level - drained)
        return self.level
