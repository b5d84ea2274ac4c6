"""Effective capacity of discrete-rate service processes.

For an i.i.d. service process x with QoS exponent theta > 0 the effective
capacity is

    C(theta) = -(1/theta) * log E[exp(-theta * x)],

the largest constant arrival rate whose queue-tail decays at least as fast as
exp(-theta * B). A first-order surrogate used by the learning layer is

    A(theta) = (1 - E[exp(-theta * x)]) / theta,

with the per-sample transform (1 - exp(-theta * r)) / theta as its unbiased
estimator target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PROB_SUM_TOL = 1e-9


def check_exponents(thetas) -> list[float]:
    """`thetas` as floats; ValueError unless each is finite and > 0."""
    thetas = list(map(float, thetas))
    for t in thetas:
        if not 0.0 < t < math.inf:  # NaN fails too
            raise ValueError(f"QoS exponents must be finite and > 0, got {t!r}")
    return thetas


@dataclass(frozen=True)
class RateDistribution:
    """A finite distribution over service rates.

    Every rate law in the package, channel laws included, is checked here:
    probabilities lie in [0, 1] and sum to 1 within PROB_SUM_TOL.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.values) < 1:
            raise ValueError("needs at least one rate")
        if len(self.values) != len(self.probs):
            raise ValueError(f"{len(self.values)} rates but {len(self.probs)} probs")
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("rates must be finite")
        if len(set(self.values)) != len(self.values):
            raise ValueError("rates must be distinct")
        if any(not 0.0 <= p <= 1.0 for p in self.probs):
            raise ValueError("probs must lie in [0, 1]")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probs sum to {total!r}, expected 1 within {PROB_SUM_TOL}")

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot([(v - m) ** 2 for v in self.values], self.probs))


def log_sum_exp(x: np.ndarray, weights: np.ndarray | None = None) -> float:
    """log(sum(weights * exp(x))), with unit weights when none are given.

    Shifted by max(x), so no term overflows and the largest term never
    underflows. Weights must be positive.
    """
    shift = x.max()
    terms = np.exp(x - shift)
    total = terms.sum() if weights is None else np.dot(weights, terms)
    return float(shift + math.log(total))


def _log_mgf_neg(dist: RateDistribution, thetas: Sequence[float]) -> list[float]:
    # log E[exp(-theta x)] for each of `thetas`, evaluated in log space so
    # large theta*x cannot underflow the whole expectation to zero.
    # Zero-probability values are dropped: they must not set the shift. Each
    # row is log_sum_exp's: one np.dot and math.log per exponent, since a
    # matrix product may add in another order.
    probs = np.asarray(dist.probs)
    values = np.asarray(dist.values)
    if 0.0 in dist.probs:
        keep = probs > 0.0
        probs, values = probs[keep], values[keep]
    x = np.multiply.outer(thetas, -values)
    shift = np.maximum.reduce(x, axis=1, keepdims=True)
    np.subtract(x, shift, out=x)
    np.exp(x, out=x)
    return [s + math.log(np.dot(probs, row)) for s, row in zip(shift.ravel().tolist(), x)]


def _effective_capacities(dist: RateDistribution, thetas: Sequence[float]) -> list[float]:
    """effective_capacity of `dist` at each of `thetas`, unchecked."""
    # 0.0 - v, not -v: a law with no positive rate has capacity 0.0, not -0.0
    return [(0.0 - v) / t for v, t in zip(_log_mgf_neg(dist, thetas), thetas)]


def _approx_utilities(dist: RateDistribution, thetas: Sequence[float]) -> list[float]:
    """approx_utility of `dist` at each of `thetas`, unchecked."""
    return [-math.expm1(v) / t for v, t in zip(_log_mgf_neg(dist, thetas), thetas)]


def effective_capacity(dist: RateDistribution, theta: float) -> float:
    """C(theta) = -(1/theta) log E[exp(-theta x)]."""
    return _effective_capacities(dist, check_exponents((theta,)))[0]


def approx_utility(dist: RateDistribution, theta: float) -> float:
    """A(theta) = (1 - E[exp(-theta x)]) / theta, the first-order surrogate."""
    return _approx_utilities(dist, check_exponents((theta,)))[0]


def payoff_transform(rate, theta):
    """(1 - exp(-theta r)) / theta for scalar or array rate (and theta)."""
    theta_arr = np.asarray(theta, dtype=float)
    check_exponents(theta_arr.ravel().tolist())
    out = -np.expm1(-theta_arr * np.asarray(rate, dtype=float)) / theta_arr
    return float(out) if np.ndim(out) == 0 else out


def empirical_effective_capacity(samples: Sequence[float], theta: float) -> float:
    """Plug-in estimate of C(theta) from observed rates.

    Equals effective_capacity of the empirical distribution of the samples.
    """
    (theta,) = check_exponents((theta,))
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    return (math.log(arr.size) - log_sum_exp(-theta * arr)) / theta


def taylor_diagnostic(dist: RateDistribution, theta: float) -> tuple[float, float]:
    """Second-order expansion around theta=0 and its residual.

    Returns (mean - theta/2 * var, effective_capacity - that), using the
    population variance of the distribution.
    """
    (theta,) = check_exponents((theta,))
    approx = dist.mean() - 0.5 * theta * dist.variance()
    return approx, effective_capacity(dist, theta) - approx
