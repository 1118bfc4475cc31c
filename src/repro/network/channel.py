"""Communication channel: the network hops of the response-time decomposition.

Fig. 7a of the paper decomposes the response time of one offloaded request as

    T_response = T1 + T2 + T_cloud

where ``T1 = T_{m-f} + T_{f-m}`` is the mobile ↔ front-end round trip,
``T2 = T_{f-b} + T_{b-f}`` is the front-end ↔ back-end round trip (intra-cloud,
small and stable), and ``T_cloud`` is the code execution time on the instance.
The paper assumes the forward and return legs of each hop are symmetric
because the channel stays open for the duration of the operation.

:class:`CommunicationChannel` samples the two hops in bulk; the SDN front-end's
routing overhead (≈150 ms, Fig. 8a) is drawn separately by
:func:`~repro.sdn.accelerator.draw_routing_overhead_ms`, and the front-end
records each request's T_cloud and total response time in
:class:`~repro.sdn.accelerator.RequestColumns`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.latency import LatencyModel, LogNormalLatencyModel, lte_latency_model


#: Default intra-cloud latency between the front-end and back-end instances.
#: The paper notes T2 "is less likely to change drastically as the latency
#: results from the internal cloud communication, between servers in the same
#: private network".
DEFAULT_INTRA_CLOUD_MODEL = LogNormalLatencyModel(median_ms=8.0, mean_ms=10.0, floor_ms=1.0, diurnal_amplitude=0.0)


class CommunicationChannel:
    """Samples the access-network and intra-cloud hops of an offloading request."""

    def __init__(
        self,
        *,
        access_model: Optional[LatencyModel] = None,
        intra_cloud_model: Optional[LatencyModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.access_model = access_model if access_model is not None else lte_latency_model()
        self.intra_cloud_model = (
            intra_cloud_model if intra_cloud_model is not None else DEFAULT_INTRA_CLOUD_MODEL
        )
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def sample_t1_many(self, hours_of_day: np.ndarray) -> np.ndarray:
        """Round trip mobile → front-end → mobile, one per ``hours_of_day`` entry."""
        return self.access_model.sample_many_at(self._rng, hours_of_day)

    def sample_t2_many(self, hours_of_day: np.ndarray) -> np.ndarray:
        """Round trip front-end → back-end → front-end, one per entry."""
        return self.intra_cloud_model.sample_many_at(self._rng, hours_of_day)
