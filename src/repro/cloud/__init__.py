"""Cloud substrate.

This package stands in for the paper's Amazon EC2 (Ireland) testbed.  It
provides:

* an **instance catalog** (:mod:`repro.cloud.catalog`) describing the instance
  types used in the paper (t2.nano through m4.10xlarge plus c4.8xlarge) with
  vCPU count, memory, hourly price and a calibrated performance profile;
* a **performance model** (:mod:`repro.cloud.performance`) that maps a number
  of concurrent offloading users to an expected response time — the analytic
  counterpart of the benchmarking the paper performs in Section VI-A;
* a **simulated instance server** (:mod:`repro.cloud.server`) with
  processor-sharing service, bounded admission and drop accounting, used by
  the discrete-event experiments (Figs. 8–10);
* a **provisioner** (:mod:`repro.cloud.provisioner`) with per-hour billing and
  the cloud vendor's instance-count cap (``CC`` in the paper);
* a **back-end pool** (:mod:`repro.cloud.backend`) that groups running
  instances into acceleration groups and dispatches offloaded requests.
"""

from repro.cloud.backend import BackendPool
from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog, InstanceType
from repro.cloud.performance import PerformanceProfile
from repro.cloud.provisioner import BillingRecord, Provisioner, ProvisioningError
from repro.cloud.server import CloudInstance, OffloadOutcome

__all__ = [
    "BackendPool",
    "BillingRecord",
    "CloudInstance",
    "DEFAULT_CATALOG",
    "InstanceCatalog",
    "InstanceType",
    "OffloadOutcome",
    "PerformanceProfile",
    "Provisioner",
    "ProvisioningError",
]
