"""Per-slot learning updates for channel selection.

Every user keeps a mixed strategy p over channels and a payoff estimate Q per
channel. After acting and observing a realized rate r, the chosen channel's
estimate moves toward (1 - exp(-theta r)) / theta with gain lambda_i, and the
strategy is reweighted multiplicatively by (1 + eta) ** Q. Also provided: a
linear reward-inaction automaton (SLA) and a fixed random baseline.

All ops are pure: they take a state and return a new one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from specgame.capacity import payoff_transform

SIMPLEX_TOL = 1e-9
Q_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class StepSchedule:
    """Gain sequences: estimate gain lambda_i, strategy gain eta_i.

    lam=None means the decaying schedule 1/(i+1) with slot index i starting
    at 0; a float means that constant gain. eta is constant.
    """

    eta: float = 0.1
    lam: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.eta and math.isfinite(self.eta)):
            raise ValueError(f"eta must be > 0 and finite, got {self.eta!r}")
        if self.lam is not None and not 0.0 < self.lam <= 1.0:
            raise ValueError(f"constant lambda must be in (0, 1], got {self.lam!r}")

    def lambda_at(self, slot):  # a slot index, or an integer array of them
        return 1.0 / (slot + 1) if self.lam is None else self.lam


def check_simplex_rows(p: np.ndarray, axis: int = -1) -> None:
    """Raise ValueError unless every row of p along `axis` is a distribution."""
    if not (p.min() >= 0.0 and p.max() < math.inf):  # NaN fails both
        raise ValueError("strategy rows must be finite and non-negative")
    err = np.abs(np.add.reduce(p, axis) - 1.0).max()
    if err > SIMPLEX_TOL:
        raise ValueError(f"strategy rows drift off the simplex by {err:.3e}")


def check_estimates(q: np.ndarray, limits: np.ndarray) -> None:
    """Raise ValueError unless every estimate lies in [0, 1/theta] of its user.

    `limits` holds 1/theta + Q_BOUND_SLACK of each user, laid out to
    broadcast against q, so each estimate meets its own user's limit. The
    transformed payoff (1 - exp(-theta r)) / theta never leaves that
    interval, so neither can a convex combination of such payoffs.
    """
    if not (q.min() >= 0.0 and q.max() < math.inf):
        raise ValueError("estimates must be finite and non-negative")
    if (q > limits).any():
        raise ValueError("estimate above 1/theta")


@dataclass(frozen=True)
class LearnerState:
    """Strategies p, estimates Q (both N x M), and the slot index."""

    p: np.ndarray
    q: np.ndarray
    slot: int = 0

    def __post_init__(self) -> None:
        if self.p.shape != self.q.shape or self.p.ndim != 2:
            raise ValueError("p and q must both be N x M")
        check_simplex_rows(self.p)
        if not (self.q.min() >= 0.0 and self.q.max() < math.inf):
            raise ValueError("estimates must be finite and non-negative")


def init_state(n_users: int, n_channels: int) -> LearnerState:
    """Uniform strategies, zero estimates."""
    p = np.full((n_users, n_channels), 1.0 / n_channels)
    q = np.zeros((n_users, n_channels))
    return LearnerState(p=p, q=q, slot=0)


def sample_profile(p: np.ndarray, rng: np.random.Generator) -> tuple[int, ...]:
    """One channel id per user via inverse CDF; one uniform per user, in order."""
    u = rng.random(p.shape[0])
    out = []
    for n in range(p.shape[0]):
        cum = np.cumsum(p[n])
        cum[-1] = 1.0
        k = bisect_right(tuple(cum), u[n])
        out.append(min(k, p.shape[1] - 1) + 1)
    return tuple(out)


def select_actions(state: LearnerState, rng: np.random.Generator) -> tuple[int, ...]:
    """sample_profile on the learner's strategies.

    A plain alias, kept because the benchmark's tracer (perfbench/run.py)
    wraps it by name.
    """
    return sample_profile(state.p, rng)


def update_estimates(
    state: LearnerState,
    profile: Sequence[int],
    rates: Sequence[float],
    thetas: Sequence[float],
    schedule: StepSchedule,
) -> LearnerState:
    """Move the chosen channels' estimates toward the transformed payoffs.

    Q_n,a += lambda_i * ((1 - exp(-theta_n r_n)) / theta_n - Q_n,a);
    other entries are untouched.
    """
    lam = schedule.lambda_at(state.slot)
    thetas_arr = np.asarray(thetas, dtype=float)
    target = payoff_transform(np.asarray(rates, dtype=float), thetas_arr)
    q = state.q.copy()
    rows = np.arange(q.shape[0])
    cols = np.asarray(profile, dtype=int) - 1
    q[rows, cols] += lam * (target - q[rows, cols])
    # estimates can never leave [0, 1/theta]; exceeding it means a bug
    check_estimates(q, (1.0 / thetas_arr + Q_BOUND_SLACK)[:, None])
    return replace(state, q=q)


def update_probabilities(state: LearnerState, schedule: StepSchedule) -> LearnerState:
    """Multiplicative reweighting p_m <- p_m (1+eta)^Q_m, renormalized per row.

    Computed as exp(Q log(1+eta)) with the row max subtracted, so large Q
    (small theta) cannot overflow.
    """
    log_gain = state.q * math.log1p(schedule.eta)
    w = state.p * np.exp(log_gain - log_gain.max(axis=1, keepdims=True))
    p = w / w.sum(axis=1, keepdims=True)
    return replace(state, p=p, slot=state.slot + 1)


def is_converged(p: np.ndarray, epsilon: float = 0.01) -> bool:
    """True when every user concentrates: max_m p_nm >= 1 - epsilon.

    p is the N x M strategy array, one row per user.
    """
    return bool(np.all(p.max(axis=1) >= 1.0 - epsilon))


@dataclass(frozen=True)
class SLAState:
    """Linear reward-inaction automaton: strategies plus its two constants."""

    p: np.ndarray
    b: float = 0.08
    r_max: float = 6.0

    def __post_init__(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"step size b must be in (0, 1), got {self.b!r}")
        if self.r_max <= 0.0:
            raise ValueError(f"r_max must be > 0, got {self.r_max!r}")
        check_simplex_rows(self.p)


def init_sla(n_users: int, n_channels: int, b: float = 0.08, r_max: float = 6.0) -> SLAState:
    return SLAState(p=np.full((n_users, n_channels), 1.0 / n_channels), b=b, r_max=r_max)


def sla_update(
    state: SLAState, profile: Sequence[int], rates: Sequence[float]
) -> SLAState:
    """p_j += b * rhat * (1{j = action} - p_j), rhat = min(r / r_max, 1)."""
    rhat = np.clip(np.asarray(rates, dtype=float) / state.r_max, 0.0, 1.0)
    p = state.p.copy()
    rows = np.arange(p.shape[0])
    cols = np.asarray(profile, dtype=int) - 1
    onehot = np.zeros_like(p)
    onehot[rows, cols] = 1.0
    p += state.b * rhat[:, None] * (onehot - p)
    p /= p.sum(axis=1, keepdims=True)
    return replace(state, p=p)


def random_baseline_profile(
    n_users: int, n_channels: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """One uniformly random channel id per user, drawn in user order.

    The inverse-CDF draw of sample_profile on uniform strategies, so it
    consumes one uniform per user like every other policy.
    """
    return sample_profile(np.full((n_users, n_channels), 1.0 / n_channels), rng)
