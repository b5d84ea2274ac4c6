"""The engine's slot step in its former row-major layout: the oracle.

Strategies, estimates and the one-hot of the actions are [T, N, M] here,
with channels on the contiguous last axis. `sample`, `contend` and both
updates are the engine's row-major code unchanged; `run_block` drives them
through a block of trials on the engine's streams and returns the per-slot
traces, [slots, T, N, M] for p and q and [slots, T, N] for the actions
(1-based) and payoffs.
"""

from __future__ import annotations

import math

import numpy as np

from specgame.channels import RateSampler
from specgame.game import Contention
from specgame.learning import StepSchedule
from specgame.simulator import CHUNK_SLOTS, SimConfig, trial_rng


def contend(model: Contention, actions, chosen, rates, tiebreak) -> np.ndarray:
    """resolve_contention for a block of trials, over any leading shape.

    actions are the [..., N] 0-based channels and chosen their [..., N, M]
    one-hot; rates and tiebreak are [..., M]. Returns the [..., N] payoffs.
    Per-channel values are gathered by flat index: with the leading axes
    flattened to rows i, user n's channel sits at actions[i, n] + M * i of
    the flattened [..., M] array.
    """
    n, m = actions.shape[-1], rates.shape[-1]
    rows = np.arange(actions.size // n).reshape(actions.shape[:-1] + (1,))
    flat = actions + m * rows
    # [..., N, M]: takers so far in user order, in the smallest integer type
    # that holds N, which keeps chunk-sized temporaries small
    taken = chosen.cumsum(axis=-2, dtype=np.min_scalar_type(n))
    counts = taken[..., -1, :]  # [..., M]
    got = rates.take(flat)
    if model is Contention.FAIR_SHARE:
        return got / counts.take(flat)
    # a taker wins when its rank among the channel's takers is floor(u * c)
    rank = taken[chosen].reshape(actions.shape) - 1
    winner = np.floor(tiebreak * counts).take(flat)
    return np.where(rank == winner, got, 0.0)


def sample(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """0-based inverse-CDF draws from the rows of p [..., M] at uniforms u.

    The arithmetic of learning.sample_profile: running sums with the last
    one forced to 1, and the first sum above u (bisect_right).
    """
    cum = p.cumsum(axis=-1)
    cum[..., -1] = 1.0
    return (cum > u[..., None]).argmax(axis=-1)


class LearnStep:
    """Estimate tracking plus multiplicative reweighting on [T, N, M] state."""

    def __init__(self, config: SimConfig) -> None:
        self.schedule = StepSchedule(eta=config.eta, lam=config.lam)
        self.log_gain = math.log1p(config.eta)
        self.thetas = np.asarray(config.game.thetas, dtype=float)
        self.neg_thetas = -self.thetas

    def update(self, state, chosen, payoffs):
        lam = self.schedule.lambda_at(state.slot)
        # payoff_transform, less its per-call check of the exponents
        target = (-np.expm1(self.neg_thetas * payoffs) / self.thetas)[..., None]
        q = np.where(chosen, state.q + lam * (target - state.q), state.q)
        log_gain = q * self.log_gain
        w = state.p * np.exp(log_gain - log_gain.max(axis=-1, keepdims=True))
        state.p = w / w.sum(axis=-1, keepdims=True)
        state.q = q


class SLAStep:
    """Linear reward-inaction on [T, N, M] state."""

    def __init__(self, config: SimConfig) -> None:
        self.b = config.sla_gain
        self.r_max = config.rate_cap()

    def update(self, state, chosen, payoffs):
        rhat = np.clip(payoffs / self.r_max, 0.0, 1.0)
        p = state.p + self.b * rhat[..., None] * (chosen - state.p)
        state.p = p / p.sum(axis=-1, keepdims=True)


class _State:
    def __init__(self, p, q):
        self.p, self.q, self.slot = p, q, 0


def run_block(config: SimConfig, trials: range) -> dict[str, np.ndarray]:
    """Traces of the given trials, one slot at a time in row-major layout.

    `learn` and `sla` update after every slot; `random` must be the
    per-slot baseline, whose strategies stay uniform.
    """
    game = config.game
    n, m, slots = game.n_users, game.n_channels, config.iterations
    if config.algorithm == "random" and not config.random_per_slot:
        raise ValueError("the row-major reference runs only the per-slot random baseline")
    policy = {"learn": LearnStep, "sla": SLAStep}.get(config.algorithm)
    if policy is not None:
        policy = policy(config)
    rngs = [trial_rng(config.base_seed, i) for i in trials]
    size = len(trials)
    state = _State(np.full((size, n, m), 1.0 / m), np.zeros((size, n, m)))
    sample_rates = RateSampler(game.channels)
    out = {
        "p": np.empty((slots, size, n, m)),
        "q": np.empty((slots, size, n, m)),
        "actions": np.empty((slots, size, n), dtype=int),
        "payoffs": np.empty((slots, size, n)),
    }
    for start in range(0, slots, CHUNK_SLOTS):
        k = min(CHUNK_SLOTS, slots - start)
        uniforms = np.stack([rng.random((k, n + 2 * m)) for rng in rngs], axis=1)
        act_u, tiebreak = uniforms[..., :n], uniforms[..., n + m :]
        rates = sample_rates(uniforms[..., n : n + m])
        for s in range(k):
            actions = sample(state.p, act_u[s])
            chosen = actions[..., None] == np.arange(m)
            payoffs = contend(game.contention, actions, chosen, rates[s], tiebreak[s])
            if policy is not None:
                policy.update(state, chosen, payoffs)
                state.slot += 1
            at = start + s
            out["p"][at], out["q"][at] = state.p, state.q
            out["actions"][at], out["payoffs"][at] = actions + 1, payoffs
    return out
