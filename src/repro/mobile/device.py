"""Mobile device profiles and the simulated device actor.

The paper motivates the system with the diversity of mobile hardware: "complex
routines like decision making algorithms (e.g. minimax and nqueens) can be
computed easily by last generation smartphones but can be expensive to compute
on older devices and wearables".  A :class:`DeviceProfile` captures that
heterogeneity as a local execution speed relative to a level-1 cloud core, so
local execution time and offloading benefit can both be computed.

:class:`MobileDevice` is the stateful per-user actor used by the experiments:
it holds the device profile, battery, current acceleration group and
promotion times.  Of its responses it keeps only a count and the
:data:`RECENT_RESPONSES` most recent ones, which is all the client
moderator's threshold rule reads; a run's full per-user response series comes
from the front-end's per-request columns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.mobile.battery import BatteryModel
from repro.mobile.tasks import OffloadableTask


@dataclass(frozen=True)
class DeviceProfile:
    """Hardware class of a mobile device.

    ``local_speed_factor`` expresses the device's single-core execution speed
    relative to a level-1 cloud core (1.0): a flagship phone is close to the
    cloud core, an older phone much slower and a wearable slower still.
    """

    name: str
    local_speed_factor: float
    cores: int = 4

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device profile name must be non-empty")
        if self.local_speed_factor <= 0:
            raise ValueError(
                f"local_speed_factor must be positive, got {self.local_speed_factor}"
            )
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")

    def local_execution_time_ms(self, work_units: float) -> float:
        """Time to execute a task locally (single-threaded) on this device."""
        if work_units <= 0:
            raise ValueError(f"work_units must be positive, got {work_units}")
        return work_units / self.local_speed_factor


#: Representative device classes, from wearables to flagship smartphones.
DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    "wearable": DeviceProfile(name="wearable", local_speed_factor=0.08, cores=1),
    "budget-phone": DeviceProfile(name="budget-phone", local_speed_factor=0.25, cores=4),
    "mid-range-phone": DeviceProfile(name="mid-range-phone", local_speed_factor=0.45, cores=6),
    "flagship-phone": DeviceProfile(name="flagship-phone", local_speed_factor=0.8, cores=8),
    "tablet": DeviceProfile(name="tablet", local_speed_factor=0.6, cores=8),
}


#: How many of its latest response times a device keeps: the longest window
#: a threshold promotion rule may average over.
RECENT_RESPONSES = 32


def check_window(window: int) -> None:
    """Reject a response window the recent-response tail cannot cover."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > RECENT_RESPONSES:
        raise ValueError(f"window must be <= {RECENT_RESPONSES}, got {window}")


@dataclass
class MobileDevice:
    """The per-user client state tracked during an experiment."""

    user_id: int
    profile: DeviceProfile
    acceleration_group: int
    battery: BatteryModel = field(default_factory=BatteryModel)
    responses_recorded: int = 0
    recent_responses_ms: Deque[float] = field(
        default_factory=lambda: deque(maxlen=RECENT_RESPONSES)
    )
    promotions: List[float] = field(default_factory=list)
    requests_sent: int = 0
    requests_failed: int = 0

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise ValueError(f"user_id must be >= 0, got {self.user_id}")
        if self.acceleration_group < 0:
            raise ValueError(
                f"acceleration_group must be >= 0, got {self.acceleration_group}"
            )

    def record_response(self, response_time_ms: float) -> None:
        """Record a completed request's perceived response time."""
        if not response_time_ms >= 0:
            raise ValueError(f"response_time_ms must be >= 0, got {response_time_ms}")
        self.responses_recorded += 1
        self.recent_responses_ms.append(response_time_ms)
        self.battery.drain_offload(response_time_ms)

    def record_responses(self, responses_ms: "np.ndarray") -> None:
        """Record a whole batch of response times in one vectorised step.

        Equivalent to calling :meth:`record_response` per value: the battery
        drain is linear in connection-open time, so draining once by the batch
        total lands on exactly the same level as draining per request.
        """
        values = np.asarray(responses_ms, dtype=float)
        if values.size == 0:
            return
        invalid = ~(values >= 0)
        if np.any(invalid):
            bad = float(values[invalid][0])
            raise ValueError(f"response_time_ms must be >= 0, got {bad}")
        self.responses_recorded += values.size
        self.recent_responses_ms.extend(values[-RECENT_RESPONSES:].tolist())
        self.battery.drain_offload(float(values.sum()))

    def record_failure(self) -> None:
        """Record a dropped request."""
        self.requests_failed += 1

    def record_failures(self, count: int) -> None:
        """Record ``count`` dropped requests at once."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.requests_failed += count

    def promote(self, new_group: int, at_ms: float) -> None:
        """Move the device to a higher acceleration group."""
        if new_group <= self.acceleration_group:
            raise ValueError(
                f"promotion must increase the group: {self.acceleration_group} -> {new_group}"
            )
        self.acceleration_group = new_group
        self.promotions.append(at_ms)

    def recent_mean_response_ms(self, window: int = 5) -> Optional[float]:
        """Mean of the last ``window`` response times, or None if no data."""
        check_window(window)
        recent = self.recent_responses_ms
        if not recent:
            return None
        return float(np.mean(list(recent)[-window:]))

    def local_execution_time_ms(self, task: OffloadableTask) -> float:
        """Time this device would need to run ``task`` locally."""
        return self.profile.local_execution_time_ms(task.work_units)

    def should_offload(self, task: OffloadableTask, expected_remote_ms: float) -> bool:
        """The classic offloading decision rule (Section II-A).

        A smartphone delegates a task if and only if the effort to delegate is
        less than the effort to process it locally; here both sides are
        expressed in expected elapsed time.
        """
        if expected_remote_ms < 0:
            raise ValueError(f"expected_remote_ms must be >= 0, got {expected_remote_ms}")
        return expected_remote_ms < self.local_execution_time_ms(task)
