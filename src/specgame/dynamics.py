"""Mean-field dynamics of the learning process.

The learner's strategy profile follows a replicator-style ODE on the product
of simplices: each user's probability mass flows toward channels whose
expected surrogate payoff (against the other users' mixtures) beats the
user's current average. With a common QoS exponent the expected surrogate
potential is a Lyapunov function for this flow, and its stationary points
include every pure Nash profile. Both the payoffs and the potential are
exact at any size: they need only each channel's Poisson-binomial count law.
The Euler loop steps on the field alone and takes the potential, max |dP/dt|
and its divergence test once per block of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from specgame.game import GameSpec, _exp_term_table, _occupancy, count_tables
from specgame.learning import check_simplex_rows

BLOCK_STEPS = 64  # Euler steps between diagnostics; their buffers scale with it


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
    omega[n, m] = sum_c P(c others) * T_n[m, c] with T_n the surrogate
    count table of the user's exponent class. The potential separates over
    channels the same way, against the whole population's count law and the
    exp-term table. `_fill` gives omega alone, and `potentials` the
    potential of a whole stack of profiles in one pass.

    The count laws of a batch of B profiles live count-major, in
    [count + 1, B, N, M] buffers whose row 0 is an all-zero pad below count
    0, so that each user's convolution pass is three ufunc calls on whole
    contiguous blocks of one shape. User k's factors are laid out at that
    shape too, repeated down the count axis, and k is left out of its own
    law by them: p = 0 and 1 - p = 1 on row k keep the row as it is. The
    buffers are allocated on the first call with a given B and reused.
    """

    def __init__(self, game: GameSpec):
        classes, tables = count_tables(game, "surrogate", game.n_users)
        self.tables = tables[classes]  # [N, M, N]
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
        self._batch = b

    def _fill(self, p: np.ndarray) -> np.ndarray:
        """omega [B, N, M] of p [B, N, M], in the field's own buffer."""
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
        return self._omega

    def potentials(self, p: np.ndarray) -> np.ndarray:
        """The expected surrogate potential [S] of each profile of p [S, N, M],
        nan without a common exponent. Its passes, over users 1..N-1 and then
        user 0, repeat `_fill`'s per-element operations on row 0, bit for bit."""
        s, n, m = p.shape
        if self.theta is None:
            return np.full(s, math.nan)
        law = np.zeros((n + 2, s, m))  # [count + 1, S, M], row 0 the pad
        law[1] = 1.0
        nxt, carry = np.zeros_like(law), np.empty((n + 1, s, m))
        for k in (*range(1, n), 0):
            np.multiply(law[1:], np.subtract(1.0, p[:, k]), out=nxt[1:])
            np.multiply(law[:-1], p[:, k], out=carry)
            np.add(nxt[1:], carry, out=nxt[1:])
            law, nxt = nxt, law
        terms = np.empty((s, m, n + 1))
        np.multiply(law[1:].transpose(1, 2, 0), self.exp_terms, out=terms)
        return (1.0 - np.add.reduce(terms.reshape(s, -1), axis=-1)) / self.theta

    def evaluate(self, p: np.ndarray):
        """omega and the expected surrogate potential (nan without one).

        p is [N, M], giving omega [N, M] and a float, or [B, N, M], giving
        omega [B, N, M] and potentials [B]. The results are fresh arrays.
        """
        batch = p[None] if p.ndim == 2 else p
        omega = self._fill(batch).copy()
        potential = self.potentials(batch)
        if p.ndim == 2:
            return omega[0], float(potential[0])
        return omega, potential


def _rhs(p: np.ndarray, omega: np.ndarray, out: np.ndarray, average=None) -> np.ndarray:
    """p * (omega - sum_m p omega) over the last axis, written into `out`;
    the row sums go to `average`, a keepdims buffer, when one is given."""
    np.multiply(p, omega, out=out)
    average = np.add.reduce(out, axis=-1, keepdims=True, out=average)
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
    iterate stays on the simplex product. A step runs only the field, dP/dt
    and the Euler update; the potentials, max |dP/dt| and the divergence
    test are taken once per BLOCK_STEPS steps, over the whole block. Raises
    IntegrationDivergedError (carrying the step index, and for a batch the
    first trajectory that diverged) if the state turns non-finite.
    """
    if not 0.0 < dt <= 0.5:
        raise ValueError(f"dt must be in (0, 0.5], got {dt!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    p = check_mixed_profile(game, start, batch=True)
    single = p.ndim == 2
    if single:
        p = p[None]
    b, n, m = p.shape
    field = _Field(game)
    path = np.empty((steps + 1, b, n, m))
    path[0] = p
    pots = np.empty((steps + 1, b))
    maxr = np.empty((steps + 1, b))
    size = min(BLOCK_STEPS, steps + 1)
    block = np.empty((size, b, n, m))  # dP/dt of each step of a block
    rows = np.empty((b, n, 1))  # row sums
    # a diverged state is reported by the block's test, not by numpy warnings
    with np.errstate(all="ignore"):
        for t0 in range(0, steps + 1, size):
            t1 = min(t0 + size, steps + 1)
            for t in range(t0, t1):
                p, rhs = path[t], block[t - t0]
                _rhs(p, field._fill(p), rhs, rows)
                if t == steps:
                    break
                nxt = path[t + 1]
                np.multiply(rhs, dt, out=nxt)
                np.add(p, nxt, out=nxt)
                np.maximum(nxt, 0.0, out=nxt)
                np.divide(nxt, np.add.reduce(nxt, axis=-1, keepdims=True, out=rows), out=nxt)
            # with p in [0, 1] and dt <= 0.5, dP/dt at step t is finite exactly
            # when the iterate at t + 1 is before its clamp; the last is not tested
            k, tested = t1 - t0, min(t1, steps) - t0
            ok = np.isfinite(block[:tested]).reshape(tested * b, n * m).all(axis=-1)
            if not ok.all():
                t, bad = divmod(int(np.flatnonzero(~ok)[0]), b)
                raise IntegrationDivergedError(t0 + t + 1, None if single else bad)
            np.abs(block[:k], out=block[:k])
            np.maximum.reduce(block[:k].reshape(k, b, -1), axis=-1, out=maxr[t0:t1])
            pots[t0:t1] = field.potentials(path[t0:t1].reshape(-1, n, m)).reshape(k, b)
    if single:
        return Trajectory(strategies=path[:, 0], potentials=pots[:, 0], max_rhs=maxr[:, 0])
    return Trajectory(strategies=path, potentials=pots, max_rhs=maxr)


def vertex_profile(game: GameSpec, profile) -> np.ndarray:
    """The pure strategy array putting all mass on `profile`."""
    prof, _ = _occupancy(game, profile)
    p = np.zeros((game.n_users, game.n_channels))
    p[np.arange(game.n_users), np.array(prof) - 1] = 1.0
    return p
