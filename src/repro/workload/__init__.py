"""Workload substrate.

* :mod:`repro.workload.arrival` — arrival processes (fixed-rate, Poisson,
  uniform and non-homogeneous modulated Poisson inter-arrival times).
"""

from repro.workload.arrival import FixedRateArrivalProcess, PoissonArrivalProcess

__all__ = [
    "FixedRateArrivalProcess",
    "PoissonArrivalProcess",
]
