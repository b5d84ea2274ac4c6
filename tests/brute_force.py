"""Brute-force oracles that walk all M**N action profiles.

These are the profile-scan designs that `specgame.game` and
`specgame.dynamics` replaced with occupancy-count and Poisson-binomial
algorithms. They are exponential in N and serve only to check the fast
paths on small games.

`surrogate_utility`, `expected_rate_share`, `rosenthal_potential`,
`surrogate_potential`, `action_value` and `is_stationary` are per-profile
helpers that no command uses, kept here for the tests that read them.

`effective_capacity` and `approx_utility` keep the capacity layer's scalar
form, one exponent and one log_sum_exp at a time, from before it evaluated
a rate law at several exponents at once. They are the references its
payoffs must match bit for bit.

The end of the file keeps the mean-field flow as it was written before
its count law moved to a count-major layout in reused buffers:
`others_count_law`, `ReferenceField` and `integrate`. They are the
references the flow must match bit for bit.
"""

import itertools
import math

import numpy as np

from specgame import capacity
from specgame.dynamics import (
    IntegrationDivergedError,
    Trajectory,
    _Field,
    check_mixed_profile,
    replicator_rhs,
)
from specgame.game import (
    TIE_TOL,
    PotentialReport,
    _exp_term_table,
    _find_improvement,
    _occupancy,
    _require_homogeneous,
    congestion_counts,
    count_tables,
    ordinal_potential,
    user_rate_distribution,
    utility,
)


def surrogate_utility(game, profile, user):
    """First-order surrogate payoff (1 - E[exp(-theta r)]) / theta."""
    return capacity.approx_utility(user_rate_distribution(game, profile, user), game.thetas[user])


def expected_rate_share(game, profile, user):
    """Mean rate per contender on the user's channel; same under both models."""
    prof, counts = _occupancy(game, profile)
    channel = game.channels[prof[user] - 1]
    return channel.law.mean() / counts[prof[user] - 1]


def rosenthal_potential(game, profile):
    """Exact potential of the expected-rate-share game: sum_m sum_{l<=c_m} mean_m / l."""
    prof, counts = _occupancy(game, profile)
    total = 0.0
    for ch, c in zip(game.channels, counts):
        mr = ch.law.mean()
        total += sum(mr / l for l in range(1, c + 1))
    return total


def surrogate_potential(game, profile):
    """Exact potential (1 - phi) / theta of the surrogate-payoff game."""
    theta = _require_homogeneous(game)
    prof, counts = _occupancy(game, profile)
    g = _exp_term_table(game, theta, max(counts))
    return (1.0 - float(sum(g[mi, c] for mi, c in enumerate(counts)))) / theta


def action_value(game, user, channel, strategies):
    """E[u'_user | a_user = channel] with the others drawn from `strategies`."""
    p = check_mixed_profile(game, strategies)
    if not 1 <= channel <= game.n_channels:
        raise ValueError(f"channel must be in 1..{game.n_channels}")
    omega, _ = _Field(game).evaluate(p)
    return float(omega[user, channel - 1])


def is_stationary(game, strategies, tol=1e-9):
    """True when max |dP/dt| <= tol."""
    return float(np.abs(replicator_rhs(game, strategies)).max()) <= tol


def log_mgf_neg(dist, theta):
    """log E[exp(-theta x)], max-shifted, with zero-probability values dropped."""
    probs = np.asarray(dist.probs)
    values = np.asarray(dist.values)
    if probs.min() == 0.0:
        keep = probs > 0.0
        probs, values = probs[keep], values[keep]
    x = -theta * values
    shift = x.max()
    terms = np.exp(x - shift)
    return float(shift + math.log(np.dot(probs, terms)))


def effective_capacity(dist, theta):
    return (0.0 - log_mgf_neg(dist, theta)) / theta


def approx_utility(dist, theta):
    return -math.expm1(log_mgf_neg(dist, theta)) / theta


def all_profiles(game):
    return itertools.product(range(1, game.n_channels + 1), repeat=game.n_users)


def enumerate_nash(game, tol=TIE_TOL, payoff="capacity"):
    """Every pure Nash profile, in lexicographic order, by checking each profile."""
    classes, tables = count_tables(game, payoff, game.n_users)
    tables = tables[classes]
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


def verify_potentials(game, zero_tol=TIE_TOL):
    """The potential report, by walking every unilateral deviation of every profile."""
    N, M = game.n_users, game.n_channels
    theta = game.homogeneous_theta()
    classes, cap_tables = count_tables(game, "capacity", N)
    cap_tables = cap_tables[classes]
    means = np.array([ch.law.mean() for ch in game.channels])
    cum_share = np.zeros((M, N + 1))
    cum_share[:, 1:] = np.cumsum(means[:, None] / np.arange(1, N + 1)[None, :], axis=1)
    if theta is not None:
        cum_exp = _exp_term_table(game, theta, N)

    checked = 0
    epg_max = 0.0
    sign_bad = 0 if theta is not None else None
    zero_bad = 0 if theta is not None else None
    for prof in all_profiles(game):
        counts = congestion_counts(prof, M)
        phi_share = float(sum(cum_share[mi, c] for mi, c in enumerate(counts)))
        if theta is not None:
            phi_exp = float(sum(cum_exp[mi, c] for mi, c in enumerate(counts)))
            phi_ord = -math.log(phi_exp) / theta
        for n, a in enumerate(prof):
            share_now = means[a - 1] / counts[a - 1]
            util_now = cap_tables[n][a - 1, counts[a - 1] - 1]
            for b in range(1, M + 1):
                if b == a:
                    continue
                checked += 1
                new_counts = list(counts)
                new_counts[a - 1] -= 1
                new_counts[b - 1] += 1
                d_share = means[b - 1] / new_counts[b - 1] - share_now
                d_phi_share = (
                    float(sum(cum_share[mi, c] for mi, c in enumerate(new_counts)))
                    - phi_share
                )
                epg_max = max(epg_max, abs(d_share - d_phi_share))
                if theta is not None:
                    d_util = cap_tables[n][b - 1, counts[b - 1]] - util_now
                    new_phi_exp = float(
                        sum(cum_exp[mi, c] for mi, c in enumerate(new_counts))
                    )
                    d_phi_ord = -math.log(new_phi_exp) / theta - phi_ord
                    u_zero = abs(d_util) <= zero_tol
                    p_zero = abs(d_phi_ord) <= zero_tol
                    if u_zero != p_zero:
                        zero_bad += 1
                    elif not u_zero and (d_util > 0) != (d_phi_ord > 0):
                        sign_bad += 1
    return PotentialReport(
        exhaustive=True,
        deviations_checked=checked,
        epg_max_abs_error=epg_max,
        opg_sign_disagreements=sign_bad,
        opg_zero_mismatches=zero_bad,
    )


class FieldEvaluator:
    """The mean-field flow's action values and potential, summed over all profiles."""

    def __init__(self, game):
        n, m = game.n_users, game.n_channels
        total = m**n
        profiles = np.array(
            list(itertools.product(range(m), repeat=n)), dtype=int
        ).reshape(total, n)
        classes, tables = count_tables(game, "surrogate", n)
        tables = tables[classes]
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


def others_count_law(p: np.ndarray) -> np.ndarray:
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


class ReferenceField:
    """The [N, M, N] field: omega [N, M] and the expected surrogate potential."""

    def __init__(self, game):
        classes, tables = count_tables(game, "surrogate", game.n_users)
        self.tables = tables[classes]  # [N, M, N]
        self.theta = game.homogeneous_theta()
        if self.theta is not None:
            self.exp_terms = _exp_term_table(game, self.theta, game.n_users)

    def evaluate(self, p: np.ndarray) -> tuple[np.ndarray, float]:
        """omega [N, M] and the expected surrogate potential (nan without one)."""
        others = others_count_law(p)
        omega = (others * self.tables).sum(axis=2)
        if self.theta is None:
            return omega, math.nan
        # add user 0 back to its others: the count law of all N users
        everyone = np.zeros((p.shape[1], p.shape[0] + 1))
        everyone[:, :-1] = others[0] * (1.0 - p[0])[:, None]
        everyone[:, 1:] += others[0] * p[0][:, None]
        phi = float((everyone * self.exp_terms).sum())
        return omega, (1.0 - phi) / self.theta


def _rhs(p: np.ndarray, omega: np.ndarray) -> np.ndarray:
    return p * (omega - (p * omega).sum(axis=1, keepdims=True))


def integrate(game, start, dt: float, steps: int) -> Trajectory:
    """The forward-Euler flow from one [N, M] start, one step at a time."""
    p = check_mixed_profile(game, start).copy()
    field = ReferenceField(game)
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
