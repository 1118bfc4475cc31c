"""Discrete-event simulation substrate.

This package provides the deterministic discrete-event simulation kernel on
which the rest of the reproduction is built: a simulation clock, an event
queue, process scheduling helpers, seeded random-stream management and summary
statistics.

The substrate replaces the paper's physical Amazon EC2 testbed.  Everything in
the higher layers (cloud instances, network channels, the SDN-accelerator,
mobile devices) is expressed as events scheduled on a single
:class:`~repro.simulation.engine.SimulationEngine`.

Design goals
------------
* **Determinism** — all randomness is drawn from named sub-streams derived from
  a single seed via :class:`~repro.simulation.randomness.RandomStreams`, so a
  simulation run is a pure function of its configuration.
* **Millisecond clock** — the paper reports all latencies in milliseconds, so
  the simulated clock counts milliseconds as floats.
* **Small, explicit API** — callbacks and plain data classes; no implicit
  global state.
"""

from repro.simulation.clock import SimulationClock
from repro.simulation.engine import Event, SimulationEngine
from repro.simulation.queues import ProcessorSharingServer
from repro.simulation.randomness import RandomStreams
from repro.simulation.stats import percentile_summary

__all__ = [
    "Event",
    "ProcessorSharingServer",
    "RandomStreams",
    "SimulationClock",
    "SimulationEngine",
    "percentile_summary",
]
