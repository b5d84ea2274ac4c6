"""Brute-force oracles that walk all M**N action profiles.

These are the profile-scan designs that `specgame.game` and
`specgame.dynamics` replaced with occupancy-count and Poisson-binomial
algorithms. They are exponential in N and serve only to check the fast
paths on small games.
"""

import itertools

import numpy as np

from specgame.game import (
    TIE_TOL,
    _count_utility_tables,
    _find_improvement,
    congestion_counts,
    ordinal_potential,
    surrogate_potential,
    utility,
)


def all_profiles(game):
    return itertools.product(range(1, game.n_channels + 1), repeat=game.n_users)


def enumerate_nash(game, tol=TIE_TOL, payoff="capacity"):
    """Every pure Nash profile, in lexicographic order, by checking each profile."""
    tables = _count_utility_tables(game, payoff)
    return [
        prof
        for prof in all_profiles(game)
        if _find_improvement(
            tables, prof, congestion_counts(prof, game.n_channels), tol
        ).is_nash
    ]


def total_utility(game, profile):
    return sum(utility(game, profile, u) for u in range(game.n_users))


def potential_maximizer(game):
    """The first profile, in lexicographic order, of largest ordinal potential."""
    return max(all_profiles(game), key=lambda p: ordinal_potential(game, p))


class FieldEvaluator:
    """The mean-field flow's action values and potential, summed over all profiles."""

    def __init__(self, game):
        n, m = game.n_users, game.n_channels
        total = m**n
        profiles = np.array(
            list(itertools.product(range(m), repeat=n)), dtype=int
        ).reshape(total, n)
        tables = _count_utility_tables(game, "surrogate")
        util = np.empty((total, n))
        theta = game.homogeneous_theta()
        self.phi = np.full(total, np.nan)
        for idx in range(total):
            prof = tuple(int(a) + 1 for a in profiles[idx])
            counts = congestion_counts(prof, m)
            for u in range(n):
                util[idx, u] = tables[u][prof[u] - 1, counts[prof[u] - 1] - 1]
            if theta is not None:
                self.phi[idx] = surrogate_potential(game, prof)
        self.profiles = profiles
        self.util = util
        self.user_idx = np.broadcast_to(np.arange(n), (total, n))

    def omegas(self, p):
        """omega[n, m]: user n's expected surrogate payoff on channel m."""
        w = p[self.user_idx, self.profiles]  # weight of each user's own action
        left = np.ones_like(w)
        np.cumprod(w[:, :-1], axis=1, out=left[:, 1:])
        right = np.ones_like(w)
        np.cumprod(w[:, :0:-1], axis=1, out=right[:, -2::-1])
        omega = np.zeros_like(p)
        np.add.at(omega, (self.user_idx, self.profiles), left * right * self.util)
        return omega

    def replicator_rhs(self, p):
        omega = self.omegas(p)
        return p * (omega - (p * omega).sum(axis=1, keepdims=True))

    def mean_potential(self, p):
        w = p[self.user_idx, self.profiles]
        return float(w.prod(axis=1) @ self.phi)
