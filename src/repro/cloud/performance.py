"""Analytic performance profiles for cloud instance types.

The paper characterises each EC2 instance type by stressing it with 1–100
concurrent offloading users and observing how the mean response time degrades
(Fig. 4).  In this reproduction, each instance type carries a
:class:`PerformanceProfile` that captures the same behaviour in closed form:

* ``speed_factor`` — single-request code-execution speed relative to the
  acceleration-level-1 baseline (so the Fig. 5 ratios 1.25×, 1.36×, 1.73× are
  direct ratios of ``speed_factor``);
* ``effective_cores`` — the degree of parallelism before processor sharing
  kicks in, which controls the slope of the degradation curve in Fig. 4;
* ``base_overhead_ms`` — fixed per-request overhead inside the instance
  (process/VM dispatch), independent of load.

The same profile drives both the closed-form characterization used by the
figure-regeneration benches and the discrete-event
:class:`~repro.cloud.server.CloudInstance` model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PerformanceProfile:
    """Calibrated execution behaviour of one instance type.

    Work is measured in *work units*, defined as milliseconds of execution on
    a single core of a level-1 (``speed_factor == 1.0``) server.
    """

    speed_factor: float
    effective_cores: float
    base_overhead_ms: float = 5.0
    jitter_fraction: float = 0.08

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {self.speed_factor}")
        if self.effective_cores <= 0:
            raise ValueError(f"effective_cores must be positive, got {self.effective_cores}")
        if self.base_overhead_ms < 0:
            raise ValueError(f"base_overhead_ms must be >= 0, got {self.base_overhead_ms}")
        if not 0 <= self.jitter_fraction < 1:
            raise ValueError(f"jitter_fraction must be in [0, 1), got {self.jitter_fraction}")

    @property
    def fluid_cores(self) -> float:
        """The exact (possibly fractional) parallelism, for fluid models.

        Every continuous capacity computation — the federation broker's
        serving-rate signal, utilisation sampling, price-per-capacity
        scores — uses this float form, so fractional-core types (t2.small
        at 3.2, t2.large at 6.5) contribute their calibrated capacity
        instead of a rounded one.  This is the single definition; do not
        re-derive core counts from ``effective_cores`` at call sites.
        """
        return max(float(self.effective_cores), 1.0)

    @property
    def service_lanes(self) -> int:
        """Discrete service lanes for the queueing models.

        The processor-sharing server and the batched executor's per-core
        Lindley recursion need an integer lane count; both round the same
        way here so the two execution modes always agree on the discrete
        service structure even for fractional-core types.
        """
        return max(int(round(self.effective_cores)), 1)

    def service_time_ms(self, work_units: float, concurrency: int = 1) -> float:
        """Expected execution time of one request under a fixed concurrency.

        With ``concurrency`` simultaneous requests on the instance, each
        request receives ``speed_factor`` work units per millisecond while the
        population fits within ``effective_cores`` and an equal share of
        ``speed_factor * effective_cores`` beyond that (processor sharing).
        """
        if work_units <= 0:
            raise ValueError(f"work_units must be positive, got {work_units}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        slowdown = max(1.0, concurrency / self.effective_cores)
        return self.base_overhead_ms + work_units * slowdown / self.speed_factor

    def max_throughput_per_second(self, work_units: float) -> float:
        """Saturation throughput for requests of ``work_units`` work.

        This is the knee of Fig. 8b: arrival rates above this value cannot be
        sustained and the queue (and response time) grows without bound.
        """
        if work_units <= 0:
            raise ValueError(f"work_units must be positive, got {work_units}")
        return 1000.0 * self.speed_factor * self.effective_cores / work_units

    def capacity_under_threshold(
        self, work_units: float, response_threshold_ms: float
    ) -> int:
        """Largest concurrency that keeps the response time under a threshold.

        The paper defines acceleration groups by sorting instances by their
        capacity to serve requests under a target response time (Section
        IV-C1, e.g. "a small instance handles a maximum of 30 users under 500
        milliseconds").  Returns 0 when even a single request misses the
        threshold.
        """
        if response_threshold_ms <= 0:
            raise ValueError(
                f"response_threshold_ms must be positive, got {response_threshold_ms}"
            )
        if self.service_time_ms(work_units, 1) > response_threshold_ms:
            return 0
        # Under processor sharing the response time is monotonically
        # non-decreasing in concurrency, so the capacity has a closed form.
        budget = response_threshold_ms - self.base_overhead_ms
        max_slowdown = budget * self.speed_factor / work_units
        capacity = math.floor(max_slowdown * self.effective_cores)
        return max(capacity, 1)

    def sample_service_time_ms(
        self,
        work_units: float,
        concurrency: int,
        rng: np.random.Generator,
    ) -> float:
        """Draw a jittered service time around :meth:`service_time_ms`."""
        mean = self.service_time_ms(work_units, concurrency)
        if self.jitter_fraction == 0:
            return mean
        jitter = rng.normal(loc=1.0, scale=self.jitter_fraction)
        return max(mean * max(jitter, 0.05), self.base_overhead_ms)
