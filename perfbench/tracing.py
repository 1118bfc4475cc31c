"""Per-layer tracing from outside the program: wrap each layer's entry points.

A :class:`Tracer` replaces each entry point named in :data:`ENTRY_POINTS`
with a timing wrapper, in the defining module or class and in every
``repro`` module that re-bound the function under its own name (the
runners import ``build_request_plan``, ``serve_slot_requests`` and
``build_fault_overlay`` by name, which a wrapper on the defining module
alone would miss).  Nothing under ``src/`` changes.

Each wrapper keeps, per entry point, a call count, ``busy`` (inclusive)
time and ``self`` time, which is ``busy`` minus the time spent in wrapped
calls made from inside it.  Entry points called once per slot or once per
run also record every call as a span ``(name, start, end, parent)``; those
called once per request are only aggregated, which keeps the cost of
tracing small enough to measure.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped entry point: ``module:qualname`` of a function or method."""

    layer: str
    module: str
    qualname: str
    span: bool
    #: Workloads on which this entry point must record calls (coverage check).
    hardest: Tuple[str, ...]


EVENT, BATCHED, FEDERATION, CAMPAIGN = (
    "event-single",
    "batched-single",
    "federation-dynamic",
    "campaign-registry",
)

ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("engine", "repro.simulation.engine", "SimulationEngine.run", True, (EVENT, CAMPAIGN)),
    EntryPoint("accelerator", "repro.sdn.accelerator", "SDNAccelerator.submit_planned", False, (EVENT,)),
    EntryPoint("accelerator", "repro.sdn.accelerator", "DeliveryBuffer.drain_until", False, (EVENT,)),
    EntryPoint("cloud", "repro.cloud.backend", "BackendPool.dispatch", False, (EVENT,)),
    EntryPoint("cloud", "repro.cloud.server", "CloudInstance.submit", False, (EVENT,)),
    EntryPoint("cloud", "repro.cloud.provisioner", "Provisioner.launch", False, (EVENT,)),
    EntryPoint("mobile", "repro.mobile.moderator", "Moderator.observe", False, (EVENT,)),
    EntryPoint("mobile", "repro.mobile.moderator", "Moderator.observe_many", False, (BATCHED,)),
    EntryPoint("plan", "repro.scenarios.plan", "build_request_plan", True, (BATCHED,)),
    EntryPoint("batched", "repro.scenarios.batched", "execute_batched", True, (BATCHED,)),
    EntryPoint("batched", "repro.multisite.runner", "execute_batched_multisite", True, (FEDERATION,)),
    EntryPoint("batched", "repro.scenarios.batched", "serve_slot_requests", True, (BATCHED, FEDERATION)),
    EntryPoint("control", "repro.sdn.autoscaler", "Autoscaler.scale_for_slot", True, (FEDERATION, BATCHED)),
    EntryPoint("control", "repro.core.model", "AdaptiveModel.decide", False, (FEDERATION, BATCHED)),
    EntryPoint("control", "repro.core.model", "AdaptiveModel.observe_slot", False, (FEDERATION, BATCHED)),
    EntryPoint("broker", "repro.multisite.runner", "run_slot_brokering", True, (FEDERATION, CAMPAIGN)),
    EntryPoint("broker", "repro.multisite.broker", "DynamicBroker.broker_slot", False, (FEDERATION, CAMPAIGN)),
    EntryPoint("federation", "repro.multisite.federation", "Federation.capacity_snapshot", False, (FEDERATION,)),
    EntryPoint("federation", "repro.multisite.federation", "Federation.admission_snapshot", False, (FEDERATION,)),
    # The dynamic broker samples the network inside ``broker_slot``; only the
    # static brokers of the registry federations call this.
    EntryPoint("federation", "repro.multisite.runner", "sample_network_for_sites", True, (CAMPAIGN,)),
    EntryPoint("faults", "repro.faults.overlay", "build_fault_overlay", True, (FEDERATION, CAMPAIGN)),
    EntryPoint("faults", "repro.faults.overlay", "MultisiteFaultPlane.process_window", False, (FEDERATION, CAMPAIGN)),
    EntryPoint("faults", "repro.faults.overlay", "MultisiteFaultPlane.stale_snapshots", False, (FEDERATION, CAMPAIGN)),
    EntryPoint("runner", "repro.scenarios.runner", "run_scenario", True, (CAMPAIGN,)),
    EntryPoint("runner", "repro.multisite.runner", "run_multisite_scenario", True, (CAMPAIGN,)),
    EntryPoint("campaign", "repro.scenarios.campaign", "CampaignRunner.run", True, (CAMPAIGN,)),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(entry.layer for entry in ENTRY_POINTS))

#: Each layer's share of traced ``wall_s`` as the profile the workloads were
#: chosen from predicts it; keys joined by ``+`` are predicted together.
PREDICTED_SHARES: Dict[str, Dict[str, float]] = {
    EVENT: {"engine+accelerator+cloud+mobile": 0.97, "plan": 0.01, "control": 0.01},
    BATCHED: {"batched": 0.48, "plan": 0.23, "control": 0.18, "runner": 0.09},
    FEDERATION: {"broker": 0.49, "control": 0.27, "batched": 0.16},
    CAMPAIGN: {},
}


def _owners(module_name: str, qualname: str) -> List[Tuple[object, str, Callable]]:
    """Every ``(namespace, attribute, original)`` binding of one entry point.

    For a method that is its class; for a module function it is the defining
    module plus every loaded ``repro`` module holding the same function
    object.  An entry point the program no longer has yields no bindings.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if "." in qualname:
        class_name, attr = qualname.split(".", 1)
        owner = getattr(module, class_name, None)
        original = vars(owner).get(attr) if isinstance(owner, type) else None
        return [(owner, attr, original)] if callable(original) else []
    original = getattr(module, qualname, None)
    if not callable(original):
        return []
    bindings = []
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not loaded_name.startswith("repro"):
            continue
        for alias, value in list(vars(loaded).items()):
            if value is original:
                bindings.append((loaded, alias, original))
    return bindings


def _patch(bindings: Sequence[Tuple[object, str, Callable]], make: Callable) -> None:
    replacement = make(bindings[0][2])
    for owner, attr, _ in bindings:
        setattr(owner, attr, replacement)


class Tracer:
    """Collects counts, busy/self times and spans from wrapped entry points."""

    def __init__(self) -> None:
        #: entry name -> [calls, busy_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: (entry name, start, end, parent entry name or "")
        self.spans: List[Tuple[str, float, float, str]] = []
        self.absent: List[str] = []
        self.engines: Dict[int, object] = {}
        # One frame per active wrapped call: [entry name, time in wrapped children].
        self._stack: List[list] = []

    def install(self, layers: Optional[Sequence[str]] = None) -> None:
        """Wrap the entry points of ``layers`` (default: every layer)."""
        # Import every defining module first, so the search for re-bound
        # names sees each module that imports an entry point by name.
        for module_name in dict.fromkeys(entry.module for entry in ENTRY_POINTS):
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for entry in ENTRY_POINTS:
            if layers is not None and entry.layer not in layers:
                continue
            bindings = _owners(entry.module, entry.qualname)
            if not bindings:
                self.absent.append(entry.qualname)
                continue
            self.stats[entry.qualname] = [0, 0.0, 0.0]
            _patch(bindings, functools.partial(self._wrap, entry))

    def _wrap(self, entry: EntryPoint, fn: Callable) -> Callable:
        stats = self.stats[entry.qualname]
        spans = self.spans if entry.span else None
        stack = self._stack
        clock = time.perf_counter
        name = entry.qualname
        engines = self.engines if entry.layer == "engine" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if spans is not None:
                    spans.append((name, start, end, stack[-1][0] if stack else ""))
                if engines is not None:
                    engines.setdefault(id(args[0]), args[0])

        return wrapper

    # -- readouts ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def busy(self, *names: str) -> float:
        return sum(self.stats.get(name, (0, 0.0, 0.0))[1] for name in names)

    def self_time(self, *names: str) -> float:
        return sum(self.stats.get(name, (0, 0.0, 0.0))[2] for name in names)

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def layer_self(self, layer: str) -> float:
        return self.self_time(*(e.qualname for e in ENTRY_POINTS if e.layer == layer))

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls(e.qualname) for e in ENTRY_POINTS if e.layer == layer)


def tail_quantile(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    Below 22 samples that percentile is not above the median, so the
    maximum is reported instead; 0 when there are no samples.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) < 22:
        return ordered[-1]
    return ordered[len(ordered) - 11]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, results: Sequence[object]) -> Dict[str, float]:
    """The per-layer metrics of one traced run (campaign, setup and trace
    metrics excepted, which need more than one run)."""
    requests = sum(result.requests_total for result in results)
    succeeded = sum(result.requests_succeeded for result in results)
    events = sum(engine.processed_events for engine in tracer.engines.values())
    cancelled = sum(engine.cancelled_events for engine in tracer.engines.values())
    engine_busy = tracer.busy("SimulationEngine.run")
    submits = tracer.calls("SDNAccelerator.submit_planned")
    serve = tracer.durations("serve_slot_requests")
    control = tracer.durations("Autoscaler.scale_for_slot")
    broker = tracer.durations("run_slot_brokering")
    plan_busy = tracer.busy("build_request_plan")
    spilled = sum(result.requests_spilled for result in results)
    retried = sum(result.requests_retried for result in results)
    ms = 1000.0
    return {
        "engine.busy_s": engine_busy,
        "engine.self_s": tracer.layer_self("engine"),
        "engine.events": float(events),
        "engine.cancelled": float(cancelled),
        "engine.events_per_req": events / requests if requests else 0.0,
        "engine.us_per_event": 1e6 * engine_busy / events if events else 0.0,
        "accelerator.submits": float(submits),
        "accelerator.self_s": tracer.layer_self("accelerator"),
        "accelerator.drains": float(tracer.calls("DeliveryBuffer.drain_until")),
        "accelerator.success_ratio": min(1.0, succeeded / submits) if submits else 0.0,
        "cloud.dispatches": float(tracer.calls("BackendPool.dispatch")),
        "cloud.dispatch_self_s": tracer.self_time("BackendPool.dispatch"),
        "cloud.server_submits": float(tracer.calls("CloudInstance.submit")),
        "cloud.server_self_s": tracer.self_time("CloudInstance.submit"),
        "cloud.launches": float(tracer.calls("Provisioner.launch")),
        "mobile.observe_calls": float(tracer.layer_calls("mobile")),
        "mobile.observe_s": tracer.busy("Moderator.observe", "Moderator.observe_many"),
        "plan.calls": float(tracer.calls("build_request_plan")),
        "plan.busy_s": plan_busy,
        "plan.req_per_s": requests / plan_busy if plan_busy else 0.0,
        "batched.busy_s": tracer.busy("execute_batched", "execute_batched_multisite"),
        "batched.self_s": tracer.layer_self("batched"),
        "batched.serve_calls": float(len(serve)),
        "batched.serve_s": float(sum(serve)),
        "batched.serve_p50_ms": ms * _median(serve),
        "batched.serve_tail_ms": ms * tail_quantile(serve),
        "control.calls": float(len(control)),
        "control.busy_s": tracer.busy("Autoscaler.scale_for_slot"),
        "control.self_s": tracer.layer_self("control"),
        "control.p50_ms": ms * _median(control),
        "control.tail_ms": ms * tail_quantile(control),
        "model.decide_s": tracer.busy("AdaptiveModel.decide"),
        "model.observe_s": tracer.busy("AdaptiveModel.observe_slot"),
        "control.scaling_actions": float(sum(r.scaling_actions for r in results)),
        "broker.calls": float(len(broker)),
        "broker.busy_s": tracer.busy("run_slot_brokering"),
        "broker.self_s": tracer.layer_self("broker"),
        "broker.p50_ms": ms * _median(broker),
        "broker.tail_ms": ms * tail_quantile(broker),
        "broker.dynamic_s": tracer.busy("DynamicBroker.broker_slot"),
        "broker.spilled": float(spilled),
        "broker.unrouted": float(sum(r.requests_unrouted for r in results)),
        "broker.spill_ratio": spilled / requests if requests else 0.0,
        "federation.snapshot_s": tracer.busy(
            "Federation.capacity_snapshot", "Federation.admission_snapshot"
        ),
        "federation.network_s": tracer.busy("sample_network_for_sites"),
        "faults.busy_s": tracer.busy(
            "build_fault_overlay",
            "MultisiteFaultPlane.process_window",
            "MultisiteFaultPlane.stale_snapshots",
        ),
        "faults.retried": float(retried),
        "faults.failed_over": float(sum(r.requests_failed_over for r in results)),
        "faults.degraded_local": float(sum(r.requests_degraded_local for r in results)),
        "faults.retry_ratio": retried / requests if requests else 0.0,
        "runner.calls": float(tracer.calls("run_scenario")),
        "runner.self_s": tracer.layer_self("runner"),
    }


def layer_shares(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Each layer's self time as a share of the traced run's wall time."""
    return {layer: tracer.layer_self(layer) / wall_s for layer in LAYERS}


def coverage_errors(workload: str, tracer: Tracer) -> List[str]:
    """Entry points that recorded no calls where they should work hardest.

    A zero here means a wrapper was bypassed (for instance by a name
    re-bound in a module the tracer did not patch) or the entry point no
    longer runs on the workload chosen to exercise it.
    """
    errors = []
    for entry in ENTRY_POINTS:
        if workload not in entry.hardest:
            continue
        if entry.qualname in tracer.absent:
            errors.append(f"{entry.module}.{entry.qualname} does not exist")
        elif tracer.calls(entry.qualname) == 0:
            errors.append(f"{entry.qualname} recorded no calls on {workload}")
    return errors


def slow_down(qualname: str, module_name: str, fraction: float) -> None:
    """Make every call of a function take ``1 + fraction`` times as long.

    The wrapper spins after the call for ``fraction`` of its measured
    duration.  The benchmark's sensitivity self-test uses this to check
    that a known slowdown is flagged.
    """
    bindings = _owners(module_name, qualname)
    if not bindings:
        raise LookupError(f"{module_name}.{qualname} not found")

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                until = time.perf_counter() + fraction * (time.perf_counter() - start)
                while time.perf_counter() < until:
                    pass

        return slowed

    _patch(bindings, make)
