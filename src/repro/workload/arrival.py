"""Arrival processes.

The paper's simulator drives its inter-arrival mode with a fixed inter-arrival
time, Poisson arrivals, or a time-varying rate; its smartphone usage study
reports 100–5000 ms between requests.  These classes provide the
corresponding arrival-time generators: fixed-rate, Poisson, uniform gaps and a
non-homogeneous (modulated) Poisson process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np


#: First chunk size used by the vectorised generators; chunks double after it.
_INITIAL_CHUNK = 1024


class ArrivalProcess:
    """Base class: arrival times drawn from inter-arrival gaps in milliseconds."""

    def sample_gaps_ms(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` inter-arrival gaps at once.

        :meth:`arrival_times_array` generates arrivals from these in bulk
        chunks.  A process without a stationary gap distribution overrides
        :meth:`arrival_times_array` instead.
        """
        raise NotImplementedError

    def arrival_times_array(
        self,
        rng: np.random.Generator,
        *,
        start_ms: float,
        end_ms: float,
        max_arrivals: Optional[int] = None,
    ) -> np.ndarray:
        """Absolute arrival times in ``[start_ms, end_ms)`` as a float array.

        Gaps are drawn in doubling chunks and accumulated with ``cumsum``, so
        generating a 100k-request workload costs a handful of numpy calls
        rather than 100k scalar RNG round trips.  Times never decrease, and
        the loop only draws another chunk while the last time is before
        ``end_ms``, so only the last chunk can reach ``end_ms``: it alone is
        cut, at its ``searchsorted`` position.
        """
        if end_ms < start_ms:
            raise ValueError(f"end_ms {end_ms} before start_ms {start_ms}")
        pieces: List[np.ndarray] = []
        generated = 0
        offset = start_ms
        chunk = _INITIAL_CHUNK
        while offset < end_ms:
            gaps = self.sample_gaps_ms(rng, chunk)
            if np.any(gaps < 0):
                bad = float(gaps[gaps < 0][0])
                raise ValueError(f"arrival process produced a negative gap: {bad}")
            times = offset + np.cumsum(gaps)
            advanced = float(times[-1]) if times.size else offset
            if times.size and advanced <= offset:
                raise ValueError(
                    "arrival process makes no progress (inter-arrival gaps are all zero)"
                )
            pieces.append(times)
            generated += times.size
            offset = advanced
            if max_arrivals is not None and generated >= max_arrivals:
                break
            chunk *= 2
        if not pieces:
            return np.empty(0, dtype=float)
        last = pieces[-1]
        pieces[-1] = last[: int(np.searchsorted(last, end_ms, side="left"))]
        merged = np.concatenate(pieces)
        if max_arrivals is not None:
            merged = merged[:max_arrivals]
        return merged


@dataclass
class FixedRateArrivalProcess(ArrivalProcess):
    """Deterministic arrivals at a constant rate (used for the Fig. 8 sweeps)."""

    rate_hz: float

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")

    def sample_gaps_ms(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, 1000.0 / self.rate_hz)


@dataclass
class PoissonArrivalProcess(ArrivalProcess):
    """Memoryless arrivals with exponential inter-arrival gaps."""

    rate_hz: float

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")

    def sample_gaps_ms(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1000.0 / self.rate_hz, size=size)


@dataclass
class UniformArrivalProcess(ArrivalProcess):
    """Arrivals with gaps uniform in ``[low_ms, high_ms]``.

    Matches the paper's summary of the usage study: "an inter-arrival rate
    between (100-5000) milliseconds".
    """

    low_ms: float = 100.0
    high_ms: float = 5000.0

    def __post_init__(self) -> None:
        if self.low_ms < 0:
            raise ValueError(f"low_ms must be >= 0, got {self.low_ms}")
        if self.high_ms < self.low_ms:
            raise ValueError(f"high_ms {self.high_ms} < low_ms {self.low_ms}")

    def sample_gaps_ms(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low_ms, self.high_ms, size=size)


class ModulatedPoissonProcess(ArrivalProcess):
    """Non-homogeneous Poisson arrivals with a time-varying rate.

    The instantaneous rate is ``rate_fn_hz(t_ms)``; arrivals are generated
    with Lewis–Shedler thinning against the supplied ``peak_rate_hz`` upper
    bound.  This is the substrate for scenario workloads the paper never
    tried — flash crowds, diurnal cycles and bursty on/off phases — where a
    constant-rate process cannot represent the load shape.
    """

    def __init__(
        self,
        rate_fn_hz: Callable[[float], float],
        *,
        peak_rate_hz: float,
    ) -> None:
        if peak_rate_hz <= 0:
            raise ValueError(f"peak_rate_hz must be positive, got {peak_rate_hz}")
        self.rate_fn_hz = rate_fn_hz
        self.peak_rate_hz = peak_rate_hz

    def _rates_at(self, times_ms: np.ndarray) -> np.ndarray:
        """Evaluate ``rate_fn_hz`` over an array of times.

        Numpy-aware rate functions (like the scenario runner's modulation
        factors) are called once on the whole array; scalar-only callables
        fall back to an element-wise loop so arbitrary lambdas keep working.
        """
        try:
            rates = np.asarray(self.rate_fn_hz(times_ms), dtype=float)
        except (TypeError, ValueError):
            return np.asarray(
                [float(self.rate_fn_hz(float(t))) for t in times_ms], dtype=float
            )
        if rates.shape != times_ms.shape:
            if rates.ndim == 0:
                return np.full(times_ms.shape, float(rates))
            return np.asarray(
                [float(self.rate_fn_hz(float(t))) for t in times_ms], dtype=float
            )
        return rates

    def _validate_rates(self, times_ms: np.ndarray, rates: np.ndarray) -> None:
        negative = rates < 0
        if np.any(negative):
            where = int(np.flatnonzero(negative)[0])
            raise ValueError(
                f"rate_fn_hz produced a negative rate at t={float(times_ms[where])}: "
                f"{float(rates[where])}"
            )
        above = rates > self.peak_rate_hz * (1.0 + 1e-9)
        if np.any(above):
            where = int(np.flatnonzero(above)[0])
            raise ValueError(
                f"rate_fn_hz exceeded peak_rate_hz at t={float(times_ms[where])}: "
                f"{float(rates[where])} > {self.peak_rate_hz}"
            )

    def arrival_times_array(
        self,
        rng: np.random.Generator,
        *,
        start_ms: float,
        end_ms: float,
        max_arrivals: Optional[int] = None,
    ) -> np.ndarray:
        """Arrival times in ``[start_ms, end_ms)`` by vectorised thinning.

        Candidate points are drawn in bulk from the homogeneous peak-rate
        process, the rate function is evaluated on the whole candidate array,
        and one uniform draw per candidate decides acceptance — the same
        Lewis–Shedler algorithm as before, minus the per-candidate Python
        round trip.
        """
        if end_ms < start_ms:
            raise ValueError(f"end_ms {end_ms} before start_ms {start_ms}")
        peak_gap_mean_ms = 1000.0 / self.peak_rate_hz
        expected = (end_ms - start_ms) / peak_gap_mean_ms
        chunk = max(_INITIAL_CHUNK, int(expected * 1.05) + 16)
        accepted: List[np.ndarray] = []
        total = 0
        offset = start_ms
        while offset < end_ms:
            candidates = offset + np.cumsum(rng.exponential(peak_gap_mean_ms, size=chunk))
            offset = float(candidates[-1])
            candidates = candidates[candidates < end_ms]
            if candidates.size:
                rates = self._rates_at(candidates)
                self._validate_rates(candidates, rates)
                keep = rng.random(candidates.size) < rates / self.peak_rate_hz
                accepted.append(candidates[keep])
                total += int(keep.sum())
                if max_arrivals is not None and total >= max_arrivals:
                    break
            chunk = max(chunk // 2, _INITIAL_CHUNK)
        merged = np.concatenate(accepted) if accepted else np.empty(0, dtype=float)
        if max_arrivals is not None:
            merged = merged[:max_arrivals]
        return merged
