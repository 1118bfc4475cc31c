"""Discrete-event simulation engine.

The engine owns a priority queue of :class:`Event` objects and the simulation
clock.  Components schedule callbacks at absolute or relative simulated times;
the engine pops events in time order, advances the clock, and invokes the
callbacks.  Callbacks may schedule further events.

The engine is intentionally minimal: there is no co-routine/process machinery,
only callbacks, which keeps the control flow explicit and easy to test.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.simulation.clock import SimulationClock


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Events fire in ``(time_ms, sequence)`` order so that events scheduled for
    the same instant fire in the order they were scheduled (FIFO tie-break),
    which keeps runs deterministic.  The engine's heap holds plain
    ``(time_ms, sequence, event)`` tuples rather than the events themselves,
    so heap sift comparisons run as C-level tuple comparisons instead of a
    generated Python ``__lt__``.  ``__slots__`` keeps the per-event footprint
    small — large scenarios allocate one event per request hop.
    """

    time_ms: float
    sequence: int
    callback: Callable[[], None]
    label: str = ""
    cancelled: bool = False
    _owner: "Optional[SimulationEngine]" = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()


_new_event = object.__new__


class SimulationEngine:
    """A deterministic discrete-event loop with a millisecond clock."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self.clock = SimulationClock(start_ms)
        self._queue: "list[tuple[float, int, Event]]" = []
        self._sequence = itertools.count()
        # Front-tier sequences: hugely negative but still increasing, so
        # front-scheduled events beat every normally-scheduled event at the
        # same instant while staying FIFO among themselves.
        self._front_sequence = itertools.count(-(2**60))
        self._processed_events = 0
        self._cancelled_pending = 0
        self._cancelled_total = 0

    @property
    def now_ms(self) -> float:
        """Current simulation time in milliseconds."""
        return self.clock._now_ms

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed_events

    @property
    def pending_events(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled_pending

    @property
    def cancelled_events(self) -> int:
        """Number of events ever cancelled while pending.

        Counted exactly once per event: :meth:`Event.cancel` is idempotent,
        so re-cancelling a cancelled event cannot drift this total (or the
        live ``pending_events`` count) — pinned by the engine test suite.
        """
        return self._cancelled_total

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` so the live-event count stays exact."""
        self._cancelled_pending += 1
        self._cancelled_total += 1

    def schedule_at(
        self,
        time_ms: float,
        callback: Callable[[], None],
        label: str = "",
        *,
        front: bool = False,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time_ms``.

        ``front=True`` places the event ahead of every normally-scheduled
        event at the same instant (front events stay FIFO among themselves).
        The federation event executor front-schedules its slot-boundary
        events up front and then its arrival pump, which submits requests
        lazily: boundaries run first at any instant, then arrivals, then
        every run-time event.
        """
        now = self.clock._now_ms
        # Inverted so that a NaN time (which compares False) is refused too.
        if not time_ms >= now:
            raise ValueError(
                f"cannot schedule event in the past: now={now} "
                f"requested={time_ms} label={label!r}"
            )
        time_ms = float(time_ms)
        sequence = next(self._front_sequence) if front else next(self._sequence)
        # The fields set directly: a class call would enter the generated
        # ``__init__`` through the type's slot, once per scheduled event.
        event = _new_event(Event)
        event.time_ms = time_ms
        event.sequence = sequence
        event.callback = callback
        event.label = label
        event.cancelled = False
        event._owner = self
        heapq.heappush(self._queue, (time_ms, sequence, event))
        return event

    def schedule_after(self, delay_ms: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` after ``delay_ms`` simulated milliseconds."""
        if not delay_ms >= 0:
            raise ValueError(f"delay must be non-negative, got {delay_ms}")
        return self.schedule_at(self.clock._now_ms + delay_ms, callback, label)

    def run(self, until_ms: Optional[float] = None) -> int:
        """Run the event loop.

        Parameters
        ----------
        until_ms:
            Stop once the next event would fire strictly after this time.  The
            clock is advanced to ``until_ms`` when the horizon is reached so
            that time-based reporting covers the full interval.  ``None`` runs
            until the queue drains.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        queue = self._queue
        heappop = heapq.heappop
        clock = self.clock
        horizon = math.inf if until_ms is None else until_ms
        executed = 0
        try:
            while queue:
                time_ms, _, event = queue[0]
                if time_ms > horizon:
                    break
                heappop(queue)
                event._owner = None  # late cancels must not skew the live count
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                if time_ms < clock._now_ms:
                    raise ValueError(
                        f"cannot move clock backwards: now={clock._now_ms} "
                        f"requested={time_ms}"
                    )
                clock._now_ms = time_ms
                event.callback()
                executed += 1
        finally:
            self._processed_events += executed
        if until_ms is not None and until_ms > clock._now_ms:
            clock.advance_to(until_ms)
        return executed

    def __repr__(self) -> str:
        return (
            f"SimulationEngine(now_ms={self.clock._now_ms:.1f}, "
            f"pending={self.pending_events}, processed={self._processed_events})"
        )
