"""SDN-accelerator front-end.

The SDN-accelerator is the gateway of Fig. 2: it receives the offloading
workload, determines the level of acceleration each request needs and routes
it to the corresponding group of back-end instances, recording every
processed request.

* :mod:`repro.sdn.accelerator` — the front-end itself: the Request Handler
  entry point, the Code Offloader routing step (with its ≈150 ms overhead,
  Fig. 8a), and the per-request result columns with their response-time
  accounting.
* :mod:`repro.sdn.autoscaler` — the control loop that, at the end of every
  provisioning period, records the period's served requests as a time slot
  of the :class:`~repro.core.model.AdaptiveModel` and re-provisions the
  back-end to the returned allocation plan.
"""

from repro.sdn.accelerator import RequestColumns, RoutingPolicy, SDNAccelerator
from repro.sdn.autoscaler import Autoscaler, ScalingAction

__all__ = [
    "Autoscaler",
    "RequestColumns",
    "RoutingPolicy",
    "SDNAccelerator",
    "ScalingAction",
]
