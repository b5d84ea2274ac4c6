"""Finite-rate channel models.

A channel is a discrete distribution over transmission rates (packets/slot).
State probabilities can be given directly or derived from an average SNR and
a set of ascending SNR thresholds under Rayleigh fading.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ChannelSpec:
    """One channel: ascending distinct rates with their state probabilities.

    Args:
        id: channel index, 1-based.
        rates: K distinct non-negative rates in ascending order.
        probs: K probabilities in [0, 1] summing to 1 (within 1e-9).
    """

    id: int
    rates: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"channel id must be >= 1, got {self.id}")
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.rates) < 1:
            raise ValueError("channel needs at least one rate state")
        if len(self.rates) != len(self.probs):
            raise ValueError(
                f"channel {self.id}: {len(self.rates)} rates but {len(self.probs)} probs"
            )
        if any(r < 0 for r in self.rates):
            raise ValueError(f"channel {self.id}: rates must be non-negative")
        if any(b <= a for a, b in zip(self.rates, self.rates[1:])):
            raise ValueError(f"channel {self.id}: rates must be distinct and ascending")
        if any(not 0.0 <= p <= 1.0 for p in self.probs):
            raise ValueError(f"channel {self.id}: probs must lie in [0, 1]")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"channel {self.id}: probs sum to {total!r}, expected 1 within {PROB_SUM_TOL}"
            )

    @cached_property
    def _cum_probs(self) -> tuple[float, ...]:
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        return tuple(cum)


def mean_rate(spec: ChannelSpec) -> float:
    """Expected rate of the channel."""
    return float(np.dot(spec.rates, spec.probs))


def rayleigh_state_probs(avg_snr_db: float, thresholds: Sequence[float]) -> tuple[float, ...]:
    """State probabilities of a K-state channel under Rayleigh fading.

    The instantaneous SNR is exponential with mean 10**(avg_snr_db/10); state k
    is the event that the SNR falls in [thresholds[k], thresholds[k+1]).

    Args:
        avg_snr_db: average SNR in dB.
        thresholds: K+1 strictly ascending SNR values in linear scale,
            first exactly 0, last +inf.

    Returns:
        K probabilities, one per state, summing to 1.
    """
    thr = [float(t) for t in thresholds]
    if len(thr) < 2:
        raise ValueError("need at least two thresholds (0 and +inf)")
    if thr[0] != 0.0:
        raise ValueError(f"first threshold must be 0, got {thr[0]!r}")
    if not math.isinf(thr[-1]):
        raise ValueError(f"last threshold must be +inf, got {thr[-1]!r}")
    if any(b <= a for a, b in zip(thr, thr[1:])):
        raise ValueError("thresholds must be strictly ascending")
    gamma_bar = 10.0 ** (avg_snr_db / 10.0)
    tail = [math.exp(-t / gamma_bar) for t in thr]
    return tuple(tail[k] - tail[k + 1] for k in range(len(thr) - 1))


def spec_from_snr(
    id: int,
    rates: Sequence[float],
    avg_snr_db: float,
    thresholds_db: Sequence[float],
) -> ChannelSpec:
    """Build a ChannelSpec from an average SNR and K-1 interior thresholds in dB.

    The implicit outer thresholds are 0 and +inf (linear scale).
    """
    interior = [10.0 ** (t / 10.0) for t in thresholds_db]
    probs = rayleigh_state_probs(avg_snr_db, [0.0, *interior, math.inf])
    return ChannelSpec(id=id, rates=tuple(rates), probs=probs)


def sample_realization(
    specs: Sequence[ChannelSpec], rng: np.random.Generator
) -> tuple[float, ...]:
    """Draw one rate per channel, independent across channels.

    Consumes exactly one uniform per channel, in ascending channel-id order,
    and maps it through the inverse CDF of the channel's state distribution.
    """
    u = rng.random(len(specs))
    out = []
    for i, spec in enumerate(specs):
        k = bisect_right(spec._cum_probs, u[i])
        out.append(spec.rates[min(k, len(spec.rates) - 1)])
    return tuple(out)


class RateSampler:
    """sample_realization for many draws at once.

    Maps uniforms [..., M] to rates [..., M] with the same inverse CDF and
    the same cumulative tables, so equal uniforms give equal rates.
    """

    def __init__(self, specs: Sequence[ChannelSpec]) -> None:
        k = max(len(spec.rates) for spec in specs)
        # padding: the true last state's cumulative 1 already exceeds every u
        self._cum = np.full((len(specs), k), np.inf)
        self._rates = np.zeros((len(specs), k))
        for m, spec in enumerate(specs):
            self._cum[m, : len(spec.rates)] = spec._cum_probs
            self._rates[m, : len(spec.rates)] = spec.rates
        self._channels = np.arange(len(specs))

    def __call__(self, u: np.ndarray) -> np.ndarray:
        # the first cumulative above u: bisect_right, as in sample_realization
        state = (self._cum > u[..., None]).argmax(axis=-1)
        return self._rates[self._channels, state]
