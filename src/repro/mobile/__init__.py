"""Mobile substrate.

Models the client side of the offloading architecture:

* :mod:`repro.mobile.tasks` — the pool of offloadable computational tasks
  (minimax, n-queens, quicksort, ...).  Each task is both *really executable*
  (a pure-Python implementation, used by the examples and tests) and carries a
  calibrated work-unit cost used by the discrete-event simulation.
* :mod:`repro.mobile.device` — a mobile device profile (hardware class, local
  execution speed, battery) and the simulated device actor that issues
  offloading requests.
* :mod:`repro.mobile.moderator` — the client-side *moderator* component of the
  paper: it monitors perceived response times and promotes the device to a
  higher acceleration group when quality degrades (the paper evaluates a
  static 1/50 promotion probability; a response-time-threshold policy and a
  battery-aware policy are provided as the future-work extensions discussed in
  Section VII).
* :mod:`repro.mobile.battery` — a simple battery drain model used by the
  battery-aware promotion policy.
"""

from repro.mobile.battery import BatteryModel
from repro.mobile.device import DeviceProfile, MobileDevice, DEVICE_PROFILES
from repro.mobile.moderator import (
    BatteryAwarePolicy,
    Moderator,
    PromotionDecision,
    PromotionPolicy,
    ResponseTimeThresholdPolicy,
    StaticProbabilityPolicy,
)
from repro.mobile.tasks import (
    DEFAULT_TASK_POOL,
    OffloadableTask,
    TaskPool,
    build_default_task_pool,
)

__all__ = [
    "BatteryAwarePolicy",
    "BatteryModel",
    "DEFAULT_TASK_POOL",
    "DEVICE_PROFILES",
    "DeviceProfile",
    "MobileDevice",
    "Moderator",
    "OffloadableTask",
    "PromotionDecision",
    "PromotionPolicy",
    "ResponseTimeThresholdPolicy",
    "StaticProbabilityPolicy",
    "TaskPool",
    "build_default_task_pool",
]
