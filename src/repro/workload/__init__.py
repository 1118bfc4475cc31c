"""Workload substrate.

* :mod:`repro.workload.traces` — the request trace log.  The paper stores one
  record per processed request in MySQL with the schema
  ``<timestamp, user-id, acceleration-group, battery-level, round-trip-time>``;
  here the log is an in-memory store.
* :mod:`repro.workload.arrival` — arrival processes (fixed-rate, Poisson,
  uniform and non-homogeneous modulated Poisson inter-arrival times).
"""

from repro.workload.arrival import FixedRateArrivalProcess, PoissonArrivalProcess
from repro.workload.traces import TraceLog, TraceRecord

__all__ = [
    "FixedRateArrivalProcess",
    "PoissonArrivalProcess",
    "TraceLog",
    "TraceRecord",
]
