"""Simulation clock.

The clock is a thin wrapper around a float number of simulated milliseconds.
It exists as its own object (rather than a bare float threaded through the
code) so that components can hold a reference to the *live* clock owned by the
engine and always observe the current simulation time.
"""

from __future__ import annotations

MILLISECONDS_PER_SECOND = 1000.0
MILLISECONDS_PER_MINUTE = 60.0 * MILLISECONDS_PER_SECOND
MILLISECONDS_PER_HOUR = 60.0 * MILLISECONDS_PER_MINUTE


class SimulationClock:
    """A monotonically advancing millisecond clock.

    Only the simulation engine advances the clock; all other components treat
    it as read-only.
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        if start_ms < 0:
            raise ValueError(f"clock cannot start at negative time: {start_ms}")
        self._now_ms = float(start_ms)

    def advance_to(self, time_ms: float) -> None:
        """Advance the clock to ``time_ms``.

        Raises
        ------
        ValueError
            If ``time_ms`` is earlier than the current time.  The engine only
            ever pops events in non-decreasing time order, so this indicates a
            scheduling bug.
        """
        if time_ms < self._now_ms:
            raise ValueError(
                f"cannot move clock backwards: now={self._now_ms} requested={time_ms}"
            )
        self._now_ms = float(time_ms)

    def __repr__(self) -> str:
        return f"SimulationClock(now_ms={self._now_ms:.3f})"
