"""Mean-field dynamics of the learning process.

The learner's strategy profile follows a replicator-style ODE on the product
of simplices: each user's probability mass flows toward channels whose
expected surrogate payoff (against the other users' mixtures) beats the
user's current average. With a common QoS exponent the expected surrogate
potential is a Lyapunov function for this flow, and its stationary points
include every pure Nash profile. Both the payoffs and the potential are
exact at any size: they need only each channel's Poisson-binomial count law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from specgame.game import GameSpec, _count_utility_tables, _exp_term_table
from specgame.learning import check_simplex_rows


def check_mixed_profile(game: GameSpec, strategies) -> np.ndarray:
    """Validate an N x M array of per-user channel distributions."""
    p = np.asarray(strategies, dtype=float)
    if p.shape != (game.n_users, game.n_channels):
        raise ValueError(
            f"expected a {game.n_users} x {game.n_channels} strategy array, "
            f"got shape {p.shape}"
        )
    check_simplex_rows(p)
    return p


def _others_count_law(p: np.ndarray) -> np.ndarray:
    """[N, M, N]: P(c of the users other than n are on channel m), c = 0..N-1.

    N convolution passes, one per user k, each over every row but k's.
    """
    n = p.shape[0]
    dist = np.zeros((n, p.shape[1], n))
    dist[:, :, 0] = 1.0
    for k in range(n):
        q = p[k][None, :, None]
        nxt = dist * (1.0 - q)
        nxt[:, :, 1:] += dist[:, :, :-1] * q
        nxt[k] = dist[k]  # user k is not among its own others
        dist = nxt
    return dist


class _Field:
    """Exact action values and expected potential of independent mixtures.

    For user n on channel m, the number of other users on m is
    Poisson-binomial in the column p[:, m] without row n, so
    omega[n, m] = sum_c P(c others) * T_n[m, c] with T_n the user's
    surrogate table. The potential separates over channels the same way,
    against the whole population's count law and the exp-term table.
    """

    def __init__(self, game: GameSpec):
        self.tables = np.stack(_count_utility_tables(game, "surrogate"))  # [N, M, N]
        self.theta = game.homogeneous_theta()
        if self.theta is not None:
            self.exp_terms = _exp_term_table(game, self.theta, game.n_users)

    def evaluate(self, p: np.ndarray) -> tuple[np.ndarray, float]:
        """omega [N, M] and the expected surrogate potential (nan without one)."""
        others = _others_count_law(p)
        omega = (others * self.tables).sum(axis=2)
        if self.theta is None:
            return omega, math.nan
        # add user 0 back to its others: the count law of all N users
        everyone = np.zeros((p.shape[1], p.shape[0] + 1))
        everyone[:, :-1] = others[0] * (1.0 - p[0])[:, None]
        everyone[:, 1:] += others[0] * p[0][:, None]
        phi = float((everyone * self.exp_terms).sum())
        return omega, (1.0 - phi) / self.theta


def action_value(game: GameSpec, user: int, channel: int, strategies) -> float:
    """E[u'_user | a_user = channel] with the others drawn from `strategies`."""
    p = check_mixed_profile(game, strategies)
    if not 1 <= channel <= game.n_channels:
        raise ValueError(f"channel must be in 1..{game.n_channels}")
    omega, _ = _Field(game).evaluate(p)
    return float(omega[user, channel - 1])


def _rhs(p: np.ndarray, omega: np.ndarray) -> np.ndarray:
    return p * (omega - (p * omega).sum(axis=1, keepdims=True))


def replicator_rhs(game: GameSpec, strategies) -> np.ndarray:
    """dP/dt: p_nm * (omega_nm - sum_m' p_nm' omega_nm'). Rows sum to zero."""
    p = check_mixed_profile(game, strategies)
    omega, _ = _Field(game).evaluate(p)
    return _rhs(p, omega)


def mixed_potential(game: GameSpec, strategies) -> float:
    """Expected surrogate potential under independent mixed strategies."""
    p = check_mixed_profile(game, strategies)
    if game.homogeneous_theta() is None:
        raise ValueError("mixed potential needs a common QoS exponent")
    return _Field(game).evaluate(p)[1]


class IntegrationDivergedError(RuntimeError):
    """Euler state left the finite range at some step."""

    def __init__(self, step: int):
        super().__init__(f"integration produced non-finite strategies at step {step}")
        self.step = step


@dataclass(frozen=True)
class Trajectory:
    """Euler path: strategies[t] with the recorded potential and max |dP/dt|."""

    strategies: np.ndarray  # [steps+1, N, M]
    potentials: np.ndarray  # [steps+1], nan when exponents are heterogeneous
    max_rhs: np.ndarray  # [steps+1]

    @property
    def final(self) -> np.ndarray:
        return self.strategies[-1]


def integrate(
    game: GameSpec,
    start,
    dt: float,
    steps: int,
) -> Trajectory:
    """Forward-Euler flow from `start`.

    Each step clamps negatives to zero and renormalizes the rows, so the
    iterate stays on the simplex product. Raises IntegrationDivergedError
    (carrying the step index) if the state turns non-finite.
    """
    if not 0.0 < dt <= 0.5:
        raise ValueError(f"dt must be in (0, 0.5], got {dt!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    p = check_mixed_profile(game, start).copy()
    field = _Field(game)
    path = np.empty((steps + 1, *p.shape))
    pots = np.empty(steps + 1)
    maxr = np.empty(steps + 1)
    for t in range(steps + 1):
        omega, pots[t] = field.evaluate(p)
        rhs = _rhs(p, omega)
        path[t] = p
        maxr[t] = float(np.abs(rhs).max())
        if t == steps:
            break
        p = p + dt * rhs
        if not np.all(np.isfinite(p)):
            raise IntegrationDivergedError(t + 1)
        np.clip(p, 0.0, None, out=p)
        p /= p.sum(axis=1, keepdims=True)
    return Trajectory(strategies=path, potentials=pots, max_rhs=maxr)


def is_stationary(game: GameSpec, strategies, tol: float = 1e-9) -> bool:
    """True when max |dP/dt| <= tol."""
    return float(np.abs(replicator_rhs(game, strategies)).max()) <= tol


def vertex_profile(game: GameSpec, profile) -> np.ndarray:
    """The pure strategy array putting all mass on `profile`."""
    p = np.zeros((game.n_users, game.n_channels))
    for n, a in enumerate(profile):
        p[n, a - 1] = 1.0
    return p
