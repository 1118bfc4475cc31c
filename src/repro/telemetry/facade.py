"""The telemetry collaborator the simulation stack is instrumented against.

Every instrumented component takes a ``telemetry`` argument defaulting to
:data:`NULL_TELEMETRY` — a null object whose spans are shared, stateless
no-ops.  The contract this buys:

* **Zero-cost when off.**  The disabled path never allocates, never reads
  the clock, never branches beyond one attribute call per *structural phase*
  (slot boundaries, not per request), so the event macro stays within the
  bench gate's budget with telemetry disabled.
* **Bit-identical results.**  Telemetry only ever *reads* simulation state
  (and the wall clock); it draws from no random stream and schedules no
  event, so a scenario's :class:`~repro.scenarios.runner.ScenarioResult` is
  identical with telemetry on or off — pinned by the parity suite.

Instrumented code never checks ``isinstance``: it calls ``telemetry.span``
and lets the object decide.  Metrics are published once per run, at fold
time, through ``telemetry.registry`` (:mod:`repro.telemetry.publish`); that
code, and any code that would do *extra work just to publish* (building
rows, concatenating arrays), guards with ``telemetry.enabled`` first.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.timeseries import NULL_RECORDER, SlotSeriesRecorder
from repro.telemetry.tracer import SpanTracer


class _NullSpan:
    """A reusable, stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled collaborator: every operation is a shared no-op."""

    enabled = False
    recorder = NULL_RECORDER

    def span(self, name: str, *, slot: Optional[int] = None) -> _NullSpan:
        return _NULL_SPAN


#: The process-wide disabled collaborator (stateless, safe to share).
NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """A live collector: one metrics registry plus one span tracer."""

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        recorder: Optional[SlotSeriesRecorder] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.recorder = recorder if recorder is not None else SlotSeriesRecorder()

    # -- tracing -------------------------------------------------------------

    def span(self, name: str, *, slot: Optional[int] = None):
        return self.tracer.span(name, slot=slot)

    # -- exports -------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """The full payload the CLI embeds under ``--json``."""
        payload = {
            "enabled": True,
            "metrics": self.registry.as_dict(),
            "trace": self.tracer.as_dict(),
        }
        if len(self.recorder):
            payload["series"] = self.recorder.as_dict()
        return payload

    def summary_lines(self, top: int = 3) -> "list[str]":
        """The human run summary: top phases by cost plus timeline coverage."""
        lines = []
        phases = self.tracer.top_phases(top)
        if phases:
            ranked = ", ".join(
                f"{name} {100.0 * share:.1f}%" for name, share in phases
            )
            lines.append(f"top phases by self time: {ranked}")
            lines.append(
                f"slot-phase timeline covers {100.0 * self.tracer.coverage():.1f}% "
                "of run wall time"
            )
        return lines


def resolve_telemetry(telemetry, spec_enabled: bool):
    """The collaborator a runner should use.

    An explicitly passed object (live or null) always wins; otherwise the
    spec's ``telemetry`` knob decides between a fresh live collector and the
    shared null object.
    """
    if telemetry is not None:
        return telemetry
    return Telemetry() if spec_enabled else NULL_TELEMETRY
