"""Parametric cellular latency models.

The paper assumes offloading over LTE with cloudlet-like latency (Sections IV
and VI-C4) and backs the assumption with a large-scale analysis of 3G/LTE RTT
samples.  Cellular RTT distributions are heavy-tailed — the reported means far
exceed the medians (e.g. operator α on 3G: mean ≈128 ms, median ≈51 ms,
SD ≈362 ms) — so we model RTT as a log-normal body with its two parameters
fitted from the target median and mean, which also yields a realistic heavy
tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np


class LatencyModel(Protocol):
    """Anything that can sample a round-trip time in milliseconds."""

    def sample_rtt_ms(self, rng: np.random.Generator, hour_of_day: float = 12.0) -> float:
        """Draw one RTT sample, optionally conditioned on the hour of day."""
        ...

    def sample_many_at(
        self, rng: np.random.Generator, hours_of_day: np.ndarray
    ) -> np.ndarray:
        """Draw one RTT sample per entry of ``hours_of_day``."""
        ...

    def mean_rtt_ms(self) -> float:
        """Long-run mean RTT of the model."""
        ...


@dataclass(frozen=True)
class LogNormalLatencyModel:
    """A log-normal RTT model fitted from a target median and mean.

    For a log-normal distribution with parameters ``mu`` and ``sigma``:

    * median = exp(mu)
    * mean   = exp(mu + sigma^2 / 2)

    so given a target ``median_ms`` and ``mean_ms`` the parameters are
    recovered in closed form.  An optional diurnal modulation scales the
    median by up to ``diurnal_amplitude`` with a peak in the evening busy
    hour, matching the day/night shape of Fig. 11.  A floor keeps samples
    physically plausible.
    """

    median_ms: float
    mean_ms: float
    floor_ms: float = 5.0
    diurnal_amplitude: float = 0.15
    peak_hour: float = 20.0

    def __post_init__(self) -> None:
        if self.median_ms <= 0:
            raise ValueError(f"median_ms must be positive, got {self.median_ms}")
        if self.mean_ms < self.median_ms:
            raise ValueError(
                "a log-normal model requires mean >= median "
                f"(got mean={self.mean_ms}, median={self.median_ms})"
            )
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )

    @property
    def mu(self) -> float:
        """Log-scale location parameter."""
        return math.log(self.median_ms)

    @property
    def sigma(self) -> float:
        """Log-scale shape parameter."""
        return math.sqrt(2.0 * math.log(self.mean_ms / self.median_ms))

    def diurnal_factor(self, hour_of_day: float) -> float:
        """Multiplicative latency modulation for the given hour of day."""
        hour = hour_of_day % 24.0
        phase = 2.0 * math.pi * (hour - self.peak_hour) / 24.0
        return 1.0 + self.diurnal_amplitude * math.cos(phase)

    def sample_rtt_ms(self, rng: np.random.Generator, hour_of_day: float = 12.0) -> float:
        """Draw one RTT sample in milliseconds."""
        base = rng.lognormal(mean=self.mu, sigma=self.sigma)
        return max(base * self.diurnal_factor(hour_of_day), self.floor_ms)

    def diurnal_factors(self, hours_of_day: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`diurnal_factor` over an array of hours.

        One fresh array, worked in place: each step is the scalar form's
        IEEE operation in its order (``2.0 * math.pi`` folds first), and
        multiplication commutes bit for bit.
        """
        factors = np.remainder(np.asarray(hours_of_day, dtype=float), 24.0)
        np.subtract(factors, self.peak_hour, out=factors)
        np.multiply(factors, 2.0 * np.pi, out=factors)
        np.divide(factors, 24.0, out=factors)
        np.cos(factors, out=factors)
        np.multiply(factors, self.diurnal_amplitude, out=factors)
        np.add(factors, 1.0, out=factors)
        return factors

    def sample_many_at(
        self, rng: np.random.Generator, hours_of_day: np.ndarray
    ) -> np.ndarray:
        """Draw one RTT sample per entry of ``hours_of_day`` in one bulk call.

        This is the per-request sampling path of the batched scenario runner:
        each request keeps its own hour-of-day diurnal modulation, but all
        log-normal draws happen in a single vectorised RNG call.  At zero
        amplitude the factor, exactly 1.0 at every finite hour, is skipped.
        """
        hours = np.asarray(hours_of_day, dtype=float)
        base = rng.lognormal(mean=self.mu, sigma=self.sigma, size=hours.shape)
        if self.diurnal_amplitude != 0.0:
            np.multiply(base, self.diurnal_factors(hours), out=base)
        return np.maximum(base, self.floor_ms, out=base)

    def mean_rtt_ms(self) -> float:
        """Long-run mean RTT (averaged over the diurnal cycle)."""
        return self.mean_ms


def lte_latency_model(
    mean_ms: float = 40.0, median_ms: float = 29.0, floor_ms: float = 5.0
) -> LogNormalLatencyModel:
    """An LTE RTT model with the paper's reported magnitudes (≈36–42 ms mean)."""
    return LogNormalLatencyModel(median_ms=median_ms, mean_ms=mean_ms, floor_ms=floor_ms)


def three_g_latency_model(
    mean_ms: float = 135.0, median_ms: float = 56.0, floor_ms: float = 15.0
) -> LogNormalLatencyModel:
    """A 3G RTT model with the paper's reported magnitudes (≈128–141 ms mean)."""
    return LogNormalLatencyModel(median_ms=median_ms, mean_ms=mean_ms, floor_ms=floor_ms)


@dataclass(frozen=True)
class ConstantLatencyModel:
    """A degenerate latency model useful for deterministic unit tests."""

    rtt_ms: float

    def __post_init__(self) -> None:
        if self.rtt_ms < 0:
            raise ValueError(f"rtt_ms must be >= 0, got {self.rtt_ms}")

    def sample_rtt_ms(self, rng: Optional[np.random.Generator] = None, hour_of_day: float = 12.0) -> float:
        return self.rtt_ms

    def sample_many_at(
        self, rng: Optional[np.random.Generator], hours_of_day: "np.ndarray"
    ) -> np.ndarray:
        """One constant sample per requested hour (no RNG consumed)."""
        hours = np.asarray(hours_of_day, dtype=float)
        return np.full(hours.shape, self.rtt_ms)

    def mean_rtt_ms(self) -> float:
        return self.rtt_ms
