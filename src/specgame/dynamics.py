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


def check_mixed_profile(game: GameSpec, strategies, batch: bool = False) -> np.ndarray:
    """Validate an N x M array of per-user channel distributions.

    With `batch`, a B x N x M stack of such arrays is accepted as well.
    """
    p = np.asarray(strategies, dtype=float)
    shape = (game.n_users, game.n_channels)
    if p.shape[-2:] != shape or p.ndim not in ((2, 3) if batch else (2,)):
        form = "B x N x M stack of " if batch else ""
        raise ValueError(
            f"expected a {form}{game.n_users} x {game.n_channels} strategy array, "
            f"got shape {p.shape}"
        )
    check_simplex_rows(p)
    return p


class _Field:
    """Exact action values and expected potential of independent mixtures.

    For user n on channel m, the number of other users on m is
    Poisson-binomial in the column p[:, m] without row n, so
    omega[n, m] = sum_c P(c others) * T_n[m, c] with T_n the user's
    surrogate table. The potential separates over channels the same way,
    against the whole population's count law and the exp-term table.

    The count laws of a batch of B profiles live count-major, in
    [count + 1, B, N, M] buffers whose row 0 is an all-zero pad below count
    0, so that each user's convolution pass is three ufunc calls on whole
    contiguous blocks of one shape. User k's factors are laid out at that
    shape too, repeated down the count axis, and k is left out of its own
    law by them: p = 0 and 1 - p = 1 on row k keep the row as it is. The
    buffers are allocated on the first call with a given B and reused.
    """

    def __init__(self, game: GameSpec):
        self.tables = np.stack(_count_utility_tables(game, "surrogate"))  # [N, M, N]
        self.theta = game.homogeneous_theta()
        if self.theta is not None:
            self.exp_terms = _exp_term_table(game, self.theta, game.n_users)
        n = game.n_users
        self._others = (1.0 - np.eye(n))[:, None, :, None]  # [k, 1, n, 1]
        self._batch = -1

    def _allocate(self, b: int) -> None:
        n, m = self.tables.shape[:2]
        shape = (n + 1, b, n, m)
        start = np.zeros(shape)
        start[1] = 1.0  # nobody else on the channel, with certainty
        laws = (np.zeros(shape), np.zeros(shape))  # row 0 is never written
        self._masked = np.empty((n, b, n, m))  # [k, B, n, M]: p_k, 0 on row k
        self._take = np.empty((n, n, b, n, m))  # [k, count, B, n, M]: _masked repeated
        self._leave = np.empty_like(self._take)  # 1 - p_k, 1 on row k
        carry = np.empty((n, b, n, m))
        self._passes = []
        src = start
        for k in range(n):
            dst = laws[k % 2]
            self._passes.append(
                (src[1:], src[:-1], self._leave[k], self._take[k], dst[1:], carry)
            )
            src = dst
        # omega's sum over counts runs along the last, contiguous axis of
        # _terms, pairwise as numpy adds there; along the leading count axis
        # numpy adds in sequence, which differs in the last bits from N = 8
        self._law = src[1:].transpose(1, 2, 3, 0)  # [B, N, M, N] view
        self._terms = np.empty((b, n, m, n))
        self._omega = np.empty((b, n, m))
        if self.theta is not None:
            self._law0 = src[1:, :, 0]  # [N, B, M]: the law of user 0's others
            self._everyone = np.empty((n + 1, b, m))  # [count, B, M]
            self._shift = np.empty((n, b, m))
            self._stay0 = np.empty((b, m))
            self._phi_terms = np.empty((b, m, n + 1))
        self._batch = b

    def _fill(self, p: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """omega [B, N, M] of p [B, N, M], in the field's own buffer.

        With a common exponent, writes sum_m sum_c P(c users on m) g[m, c]
        into phi [B]; `potential` turns that into the potential.
        """
        if p.shape[0] != self._batch:
            self._allocate(p.shape[0])
        np.multiply(p.transpose(1, 0, 2)[:, :, None, :], self._others, out=self._masked)
        np.copyto(self._take, self._masked[:, None])
        np.subtract(1.0, self._take, out=self._leave)
        for law, below, leave, take, nxt, carry in self._passes:
            np.multiply(law, leave, out=nxt)
            np.multiply(below, take, out=carry)
            np.add(nxt, carry, out=nxt)
        np.multiply(self._law, self.tables, out=self._terms)
        np.add.reduce(self._terms, axis=-1, out=self._omega)
        if self.theta is not None:
            # one more pass, on user 0's row, adds user 0 back to its others:
            # the count law of all N users
            law0, everyone, shift = self._law0, self._everyone, self._shift
            p0 = p[:, 0]
            np.subtract(1.0, p0, out=self._stay0)
            np.multiply(law0, self._stay0, out=everyone[:-1])
            everyone[-1] = 0.0  # cleared each call: count N gets only the shift
            np.multiply(law0, p0, out=shift)
            np.add(everyone[1:], shift, out=everyone[1:])
            terms = self._phi_terms
            np.multiply(everyone.transpose(1, 2, 0), self.exp_terms, out=terms)
            np.add.reduce(terms.reshape(self._batch, -1), axis=-1, out=phi)
        return self._omega

    def potential(self, phi: np.ndarray) -> np.ndarray:
        """The expected surrogate potential of each phi that `_fill` wrote."""
        return phi if self.theta is None else (1.0 - phi) / self.theta

    def evaluate(self, p: np.ndarray):
        """omega and the expected surrogate potential (nan without one).

        p is [N, M], giving omega [N, M] and a float, or [B, N, M], giving
        omega [B, N, M] and potentials [B]. The results are fresh arrays.
        """
        batch = p[None] if p.ndim == 2 else p
        phi = np.full(batch.shape[0], math.nan)
        omega = self._fill(batch, phi).copy()
        potential = self.potential(phi)
        if p.ndim == 2:
            return omega[0], float(potential[0])
        return omega, potential


def action_value(game: GameSpec, user: int, channel: int, strategies) -> float:
    """E[u'_user | a_user = channel] with the others drawn from `strategies`."""
    p = check_mixed_profile(game, strategies)
    if not 1 <= channel <= game.n_channels:
        raise ValueError(f"channel must be in 1..{game.n_channels}")
    omega, _ = _Field(game).evaluate(p)
    return float(omega[user, channel - 1])


def _rhs(p: np.ndarray, omega: np.ndarray, out: np.ndarray) -> np.ndarray:
    """p * (omega - sum_m p omega) over the last axis, written into `out`."""
    np.multiply(p, omega, out=out)
    average = np.add.reduce(out, axis=-1, keepdims=True)
    np.subtract(omega, average, out=out)
    return np.multiply(p, out, out=out)


def replicator_rhs(game: GameSpec, strategies) -> np.ndarray:
    """dP/dt: p_nm * (omega_nm - sum_m' p_nm' omega_nm'). Rows sum to zero."""
    p = check_mixed_profile(game, strategies)
    omega, _ = _Field(game).evaluate(p)
    return _rhs(p, omega, np.empty_like(p))


def mixed_potential(game: GameSpec, strategies) -> float:
    """Expected surrogate potential under independent mixed strategies."""
    p = check_mixed_profile(game, strategies)
    if game.homogeneous_theta() is None:
        raise ValueError("mixed potential needs a common QoS exponent")
    return _Field(game).evaluate(p)[1]


class IntegrationDivergedError(RuntimeError):
    """Euler state left the finite range at some step.

    For a batch of starts, `trajectory` is the first one that diverged.
    """

    def __init__(self, step: int, trajectory: int | None = None):
        where = "" if trajectory is None else f" in trajectory {trajectory}"
        super().__init__(
            f"integration produced non-finite strategies at step {step}{where}"
        )
        self.step = step
        self.trajectory = trajectory


@dataclass(frozen=True)
class Trajectory:
    """Euler path: strategies[t] with the recorded potential and max |dP/dt|.

    A batch of starts adds an axis after the step axis to each array.
    """

    strategies: np.ndarray  # [steps+1, N, M] or [steps+1, B, N, M]
    potentials: np.ndarray  # [steps+1] or [steps+1, B]; nan without a common exponent
    max_rhs: np.ndarray  # [steps+1] or [steps+1, B]

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

    `start` is one [N, M] profile, giving a trajectory of [steps+1, N, M]
    strategies with [steps+1] potentials and max |dP/dt|, or a [B, N, M]
    batch of profiles, integrated together, giving [steps+1, B, N, M] and
    [steps+1, B]. Each trajectory of a batch equals, bit for bit, the one
    its start gives alone.

    Each step clamps negatives to zero and renormalizes the rows, so the
    iterate stays on the simplex product. Raises IntegrationDivergedError
    (carrying the step index, and for a batch the first trajectory that
    diverged) if the state turns non-finite.
    """
    if not 0.0 < dt <= 0.5:
        raise ValueError(f"dt must be in (0, 0.5], got {dt!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    p = check_mixed_profile(game, start, batch=True)
    single = p.ndim == 2
    if single:
        p = p[None]
    b = p.shape[0]
    field = _Field(game)
    path = np.empty((steps + 1, *p.shape))
    path[0] = p
    phi = np.full((steps + 1, b), math.nan)
    maxr = np.empty((steps + 1, b))
    rhs = np.empty_like(p)
    scratch = np.empty_like(p)  # |dP/dt|, then the Euler step dt * dP/dt
    scratch_rows = scratch.reshape(b, -1)
    finite = np.empty(p.shape, dtype=bool)
    for t in range(steps + 1):
        p = path[t]
        omega = field._fill(p, phi[t])
        _rhs(p, omega, rhs)
        np.abs(rhs, out=scratch)
        np.maximum.reduce(scratch_rows, axis=-1, out=maxr[t])
        if t == steps:
            break
        nxt = path[t + 1]
        np.multiply(rhs, dt, out=scratch)
        np.add(p, scratch, out=nxt)
        if not np.logical_and.reduce(np.isfinite(nxt, out=finite), axis=None):
            rows_ok = np.logical_and.reduce(finite.reshape(b, -1), axis=-1)
            raise IntegrationDivergedError(
                t + 1, None if single else int(np.flatnonzero(~rows_ok)[0])
            )
        np.maximum(nxt, 0.0, out=nxt)
        np.divide(nxt, np.add.reduce(nxt, axis=-1, keepdims=True), out=nxt)
    pots = field.potential(phi)
    if single:
        return Trajectory(strategies=path[:, 0], potentials=pots[:, 0], max_rhs=maxr[:, 0])
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
