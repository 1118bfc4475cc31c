"""Span-based wall-clock tracer for the simulation's structural phases.

The registry (:mod:`repro.telemetry.registry`) answers *what the simulation
did*; the tracer answers *where the real time went*.  Spans nest around the
hot structural phases of a run — ``plan.generate``, ``slot.broker``,
``slot.serve``, ``slot.control``, ``stats.fold`` — so the per-slot timeline
pins exactly which phase the flat per-request cost lives in, without a
sampling profiler.

Spans are wall-clock measurements (``time.perf_counter``), so unlike every
registry metric they legitimately differ between runs of the same seed; the
zero-cost parity suite therefore compares *simulation results*, never span
durations.  Exports:

* :meth:`SpanTracer.phase_rows` — per-phase totals with **self time**
  (duration minus child spans), the number the "top phases by cost" summary
  ranks by;
* :meth:`SpanTracer.to_chrome_trace` — the Chrome trace-event JSON format,
  viewable in ``chrome://tracing`` / Perfetto;
* :meth:`SpanTracer.coverage` — the fraction of the root span's wall time
  attributed to child phases (the acceptance gate asks for >= 90%).

While a root span is open the tracer also hooks ``gc.callbacks``: each
cyclic-GC pause of the older generations, and each generation-0 pause that
lasts at least :data:`OFFCPU_MIN_S`, becomes a ``gc`` span under whatever
span is open, so a collection that lands between phases is attributed rather
than lost.  Only a live tracer registers the hook; the disabled telemetry
path never touches the garbage collector.

Time the process spends off the CPU (descheduled on a busy host, or blocked
on I/O) between two children of a span is attributed the same way: each
span open and close also reads the thread's CPU clock
(``time.thread_time``), and when the wall time of a gap between a parent's
children (or between the parent's own open or close and its first or last
child) exceeds its CPU time by at least :data:`OFFCPU_MIN_S`, the difference
becomes an ``offcpu`` child span of the parent.  Coverage then measures the
code, not the host's load.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: The smallest off-CPU stretch of a gap recorded as an ``offcpu`` span, and
#: the shortest generation-0 collection recorded as a ``gc`` span: far above
#: the clocks' read-to-read noise, far below a scheduler quantum.
OFFCPU_MIN_S = 1e-4


@dataclass
class SpanRecord:
    """One closed span: a named phase with nesting metadata.

    Times are seconds relative to the tracer's epoch (its construction
    instant), which keeps Chrome-trace timestamps small and stable.
    """

    name: str
    start_s: float
    duration_s: float
    depth: int
    parent: int  # index into the tracer's span list; -1 for root spans
    slot: Optional[int] = None  # provisioning-slot index, when phase-per-slot
    children_s: float = 0.0  # summed durations of direct children

    @property
    def self_s(self) -> float:
        """Exclusive time: duration not spent in child spans."""
        return max(self.duration_s - self.children_s, 0.0)


class _OpenSpan:
    """Context manager returned by :meth:`SpanTracer.span`."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "SpanTracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._index)
        return False


class SpanTracer:
    """Records nested wall-clock spans; single-threaded by design."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.spans: List[SpanRecord] = []
        self._stack: List[int] = []
        # Per open span: [wall, CPU] at its open or its last child's close,
        # and whether it has had a child.
        self._marks: List[list] = []
        # Wall and CPU clocks at the start of the running collection.
        self._gc_start: Optional["tuple[float, float]"] = None

    def span(self, name: str, *, slot: Optional[int] = None) -> _OpenSpan:
        """Open a span; close it by exiting the returned context manager."""
        if not name:
            raise ValueError("span name must be non-empty")
        stack = self._stack
        if not stack:
            gc.callbacks.append(self._on_gc)
        # Allocate first: a collection triggered by these allocations then
        # ends before the span starts, so it is credited to the parent only.
        opened = _OpenSpan(self, -1)
        record = SpanRecord(
            name=name,
            start_s=0.0,
            duration_s=0.0,
            depth=len(stack),
            parent=stack[-1] if stack else -1,
            slot=slot,
        )
        index = opened._index = len(self.spans)
        self.spans.append(record)
        mark = [0.0, 0.0, False]
        cpu_s = time.thread_time()
        now_s = time.perf_counter() - self._epoch
        if stack:
            self._close_gap(stack[-1], self._marks[-1], len(stack), now_s, cpu_s)
        stack.append(index)
        self._marks.append(mark)
        mark[0] = record.start_s = now_s
        mark[1] = cpu_s
        return opened

    def _close(self, index: int) -> None:
        now_s = time.perf_counter() - self._epoch
        cpu_s = time.thread_time()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed out of order"
            )
        self._stack.pop()
        mark = self._marks.pop()
        record = self.spans[index]
        record.duration_s = now_s - record.start_s
        if self._stack:
            # The parent's next gap starts where this child ends.
            self._marks[-1][:2] = now_s, cpu_s
            self.spans[record.parent].children_s += record.duration_s
        if mark[2]:
            self._close_gap(index, mark, record.depth + 1, now_s, cpu_s)
        if not self._stack:
            gc.callbacks.remove(self._on_gc)

    def _close_gap(
        self, parent: int, mark: list, depth: int, now_s: float, cpu_s: float
    ) -> None:
        """End span ``parent``'s gap since ``mark`` (its open or last child).

        The gap's off-CPU part (wall minus CPU time) becomes an ``offcpu``
        child span when it reaches :data:`OFFCPU_MIN_S`.
        """
        mark[2] = True
        offcpu_s = (now_s - mark[0]) - (cpu_s - mark[1])
        if offcpu_s >= OFFCPU_MIN_S:
            self.spans.append(
                SpanRecord(
                    name="offcpu",
                    start_s=now_s - offcpu_s,
                    duration_s=offcpu_s,
                    depth=depth,
                    parent=parent,
                )
            )
            self.spans[parent].children_s += offcpu_s

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """``gc.callbacks`` hook: record a collection as a ``gc`` span.

        Collections of the older generations are always recorded: they take
        milliseconds.  A generation-0 pass usually takes microseconds and
        runs often enough to flood the span list, so it is recorded only when
        it lasts at least :data:`OFFCPU_MIN_S`; in a process that holds many
        young objects, such as a long test session, one can take half a
        millisecond.  A recorded collection is a child like any other: it
        ends its parent's gap and starts the next.
        """
        if not self._stack:
            return
        now_s = time.perf_counter() - self._epoch
        cpu_s = time.thread_time()
        if phase == "start":
            self._gc_start = (now_s, cpu_s)
            return
        start, self._gc_start = self._gc_start, None
        if start is None:
            return
        start_s, start_cpu_s = start
        duration_s = now_s - start_s
        if not info["generation"] and duration_s < OFFCPU_MIN_S:
            return
        parent = self._stack[-1]
        marks = self._marks[-1]
        self._close_gap(parent, marks, len(self._stack), start_s, start_cpu_s)
        marks[:2] = now_s, cpu_s
        self.spans.append(
            SpanRecord(
                name="gc",
                start_s=start_s,
                duration_s=duration_s,
                depth=len(self._stack),
                parent=parent,
            )
        )
        self.spans[parent].children_s += duration_s

    # -- aggregation ---------------------------------------------------------

    @property
    def total_wall_s(self) -> float:
        """Summed duration of the root (depth-0) spans."""
        return sum(span.duration_s for span in self.spans if span.depth == 0)

    def coverage(self) -> float:
        """Fraction of root wall time attributed to child spans (0 when empty)."""
        roots = [span for span in self.spans if span.depth == 0]
        total = sum(span.duration_s for span in roots)
        if total <= 0:
            return 0.0
        return min(sum(span.children_s for span in roots) / total, 1.0)

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-phase-name aggregation: calls, total and self (exclusive) time."""
        totals: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            bucket = totals.setdefault(
                span.name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
            )
            bucket["calls"] += 1.0
            bucket["total_s"] += span.duration_s
            bucket["self_s"] += span.self_s
        return totals

    def phase_rows(self) -> List[Dict[str, object]]:
        """Display rows, ranked by self time (the CLI summary-table schema)."""
        wall = self.total_wall_s
        rows = []
        for name, bucket in self.phase_totals().items():
            rows.append(
                {
                    "phase": name,
                    "calls": int(bucket["calls"]),
                    "total_ms": round(1000.0 * bucket["total_s"], 2),
                    "self_ms": round(1000.0 * bucket["self_s"], 2),
                    "share_pct": round(100.0 * bucket["self_s"] / wall, 1)
                    if wall > 0
                    else 0.0,
                }
            )
        rows.sort(key=lambda row: (-float(row["self_ms"]), row["phase"]))
        return rows

    def top_phases(self, n: int = 3) -> List["tuple[str, float]"]:
        """The ``n`` costliest phases as ``(name, share-of-wall)`` pairs."""
        wall = self.total_wall_s
        if wall <= 0:
            return []
        ranked = sorted(
            self.phase_totals().items(), key=lambda item: -item[1]["self_s"]
        )
        return [(name, bucket["self_s"] / wall) for name, bucket in ranked[:n]]

    # -- exports -------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly span list (milliseconds) plus the phase aggregation."""
        return {
            "total_wall_ms": round(1000.0 * self.total_wall_s, 3),
            "coverage": round(self.coverage(), 4),
            "spans": [
                {
                    "name": span.name,
                    "start_ms": round(1000.0 * span.start_s, 3),
                    "duration_ms": round(1000.0 * span.duration_s, 3),
                    "self_ms": round(1000.0 * span.self_s, 3),
                    "depth": span.depth,
                    "slot": span.slot,
                }
                for span in self.spans
            ],
            "phases": self.phase_rows(),
        }

    def to_chrome_trace(self) -> Dict[str, object]:
        """The Chrome trace-event format (``chrome://tracing`` / Perfetto).

        Every span becomes one complete (``ph: "X"``) event on a single
        process/thread track; timestamps and durations are microseconds, as
        the format requires.
        """
        events = []
        for span in self.spans:
            event: Dict[str, object] = {
                "name": span.name,
                "cat": "phase",
                "ph": "X",
                "ts": round(1e6 * span.start_s, 1),
                "dur": round(1e6 * span.duration_s, 1),
                "pid": 0,
                "tid": 0,
            }
            if span.slot is not None:
                event["args"] = {"slot": span.slot}
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}
