"""Deterministic random-stream management.

Every stochastic component of the simulation (arrival processes, task
selection, service-time jitter, network latency, promotion decisions, ...)
draws from its own named stream.  Streams are derived from a single root seed
with :func:`numpy.random.SeedSequence.spawn`-style child seeding keyed by the
stream name, so:

* two runs with the same root seed produce identical results, and
* adding a new consumer of randomness does not perturb the draws seen by
  existing consumers (streams are independent by name, not by draw order).
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


class RandomStreams:
    """A factory of named, independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same generator instance within one
        :class:`RandomStreams`, so repeated calls share state (as a single
        logical stream should).
        """
        if not name:
            raise ValueError("stream name must be a non-empty string")
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(self._child_seed(name))
        return self._streams[name]

    def _child_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self._seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"
