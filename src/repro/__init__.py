"""repro — reproduction of "Modeling Mobile Code Acceleration in the Cloud".

This package reimplements the system described in Flores et al., *Modeling
Mobile Code Acceleration in the Cloud* (IEEE ICDCS 2017): a software-defined
code-offloading architecture in which mobile devices offload computational
tasks to cloud instances organised into *acceleration groups*, and an adaptive
model that predicts the per-group workload of the next provisioning period
(edit-distance nearest-slot search over the request history) and allocates the
cheapest instance mix able to serve it (integer linear programming).

Package layout
--------------
``repro.core``
    The paper's contribution: time slots, edit-distance workload prediction,
    ILP resource allocation, acceleration-level characterization and the
    combined :class:`~repro.core.model.AdaptiveModel`.
``repro.simulation``
    Deterministic discrete-event simulation kernel (clock, engine, queues,
    random streams, statistics).
``repro.cloud``
    Instance catalog, calibrated performance profiles, simulated instance
    servers, provisioning/billing, back-end pool.
``repro.network``
    3G/LTE latency models, the synthetic NetRadar dataset, the
    ``T1 + T2 + T_cloud`` response-time decomposition.
``repro.mobile``
    Offloadable task pool (with real algorithm implementations), device
    profiles, battery model and the client-side moderator with its promotion
    policies.
``repro.workload``
    Arrival processes.
``repro.sdn``
    The SDN-accelerator front-end (request handling, routing, request
    records) and the predictive autoscaling control loop.
``repro.analysis``
    Instance benchmarking, predictor cross-validation and shared metrics.
``repro.experiments``
    One runner per evaluation figure of the paper (Fig. 4–11).
``repro.scenarios``
    Declarative scenario engine: :class:`~repro.scenarios.spec.ScenarioSpec`
    composes the layers above into runnable simulations (flash crowds,
    diurnal cycles, price spikes, ...), and the parallel
    :class:`~repro.scenarios.campaign.CampaignRunner` compares many scenarios
    in one table.

Quick start
-----------
>>> from repro import AdaptiveModel, InstanceOption, TimeSlot
>>> options = [
...     InstanceOption("t2.nano", acceleration_group=1, cost_per_hour=0.0063, capacity=10),
...     InstanceOption("t2.large", acceleration_group=2, cost_per_hour=0.101, capacity=40),
... ]
>>> model = AdaptiveModel(options)
>>> model.observe_slot(TimeSlot.from_counts(0, {1: 12, 2: 5}))
>>> model.observe_slot(TimeSlot.from_counts(1, {1: 18, 2: 9}))
>>> decision = model.decide()
>>> decision.plan.total_instances >= 1
True
"""

from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog, InstanceType
from repro.core.acceleration import AccelerationGroup, characterize_instances
from repro.core.allocation import (
    AllocationPlan,
    AllocationProblem,
    IlpAllocator,
    InstanceOption,
    build_options_from_catalog,
)
from repro.core.model import AdaptiveModel, ModelDecision
from repro.core.prediction import WorkloadPredictor, prediction_accuracy
from repro.core.timeslots import TimeSlot, TimeSlotHistory
from repro.mobile.tasks import DEFAULT_TASK_POOL, OffloadableTask, TaskPool
from repro.scenarios import (
    CampaignRunner,
    ScenarioResult,
    ScenarioSpec,
    get_scenario,
    run_scenario,
)
from repro.sdn.accelerator import SDNAccelerator

__version__ = "1.0.0"

__all__ = [
    "AccelerationGroup",
    "AdaptiveModel",
    "AllocationPlan",
    "AllocationProblem",
    "CampaignRunner",
    "DEFAULT_CATALOG",
    "DEFAULT_TASK_POOL",
    "IlpAllocator",
    "InstanceCatalog",
    "InstanceOption",
    "InstanceType",
    "ModelDecision",
    "OffloadableTask",
    "SDNAccelerator",
    "ScenarioResult",
    "ScenarioSpec",
    "TaskPool",
    "TimeSlot",
    "TimeSlotHistory",
    "WorkloadPredictor",
    "build_options_from_catalog",
    "characterize_instances",
    "get_scenario",
    "prediction_accuracy",
    "run_scenario",
    "__version__",
]
