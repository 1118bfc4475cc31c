"""Network substrate.

Models the wireless access network between mobile devices and the cloud
front-end, and the intra-cloud network between the front-end and the back-end
instances.

* :mod:`repro.network.latency` — parametric 3G/LTE round-trip-time models.
* :mod:`repro.network.netradar` — a synthetic stand-in for the NetRadar 2015
  Finland dataset used in Fig. 11, reproducing the per-operator mean, standard
  deviation, median and diurnal shape the paper reports.
* :mod:`repro.network.channel` — the two network hops of the response-time
  decomposition ``T_response = T1 + T2 + T_cloud`` of Fig. 7a: ``T1`` is the
  mobile↔front-end round trip and ``T2`` the front-end↔back-end round trip.
"""

from repro.network.channel import CommunicationChannel
from repro.network.latency import (
    LatencyModel,
    LogNormalLatencyModel,
    lte_latency_model,
    three_g_latency_model,
)
from repro.network.netradar import (
    NETRADAR_OPERATORS,
    NetRadarDataset,
    OperatorLatencyProfile,
    generate_netradar_dataset,
)

__all__ = [
    "CommunicationChannel",
    "LatencyModel",
    "LogNormalLatencyModel",
    "NETRADAR_OPERATORS",
    "NetRadarDataset",
    "OperatorLatencyProfile",
    "generate_netradar_dataset",
    "lte_latency_model",
    "three_g_latency_model",
]
