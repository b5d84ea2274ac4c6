"""Reference computations that the benchmark checks the program against.

Everything here works from plain numbers: each channel's rates and state
probabilities, one QoS exponent per user, and the contention model's name
(``"fair_share"`` or ``"slot_winner"``). Nothing is imported from
``specgame``, so an error in the program cannot cancel out against the same
error here.

- Rate laws and effective capacities, per user, under both contention models.
- The pure-equilibrium count of a common-exponent game, by enumerating
  channel-occupancy vectors and weighting each by its multinomial coefficient.
- The expected surrogate potential and the replicator field under
  independent mixed strategies, by Poisson-binomial occupancy counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

FAIR_SHARE = "fair_share"
SLOT_WINNER = "slot_winner"

# A deviation must gain more than this to break an equilibrium; the same
# tie tolerance the program documents for its Nash checks.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class Channel:
    rates: tuple[float, ...]
    probs: tuple[float, ...]

    def mean(self) -> float:
        return math.fsum(r * p for r, p in zip(self.rates, self.probs))


@dataclass(frozen=True)
class Game:
    channels: tuple[Channel, ...]
    thetas: tuple[float, ...]
    contention: str

    def __post_init__(self) -> None:
        if self.contention not in (FAIR_SHARE, SLOT_WINNER):
            raise ValueError(f"unknown contention model {self.contention!r}")

    @property
    def n_users(self) -> int:
        return len(self.thetas)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def common_theta(self) -> float:
        theta = self.thetas[0]
        if any(t != theta for t in self.thetas):
            raise ValueError("this reference needs a common QoS exponent")
        return theta


# --- one user's service process --------------------------------------------


def rate_law(channel: Channel, contenders: int, contention: str) -> list[tuple[float, float]]:
    """(value, probability) pairs of one user's per-slot rate on `channel`.

    Fair sharing divides the realized rate by the number of contenders.
    Slot winner gives the whole rate to one contender, chosen uniformly, and
    nothing to the others.
    """
    c = contenders
    if c < 1:
        raise ValueError("contenders must be >= 1")
    if contention == FAIR_SHARE:
        return [(r / c, p) for r, p in zip(channel.rates, channel.probs)]
    law = [(r, p / c) for r, p in zip(channel.rates, channel.probs)]
    if c > 1:
        law.append((0.0, 1.0 - 1.0 / c))
    return law


def log_mgf_neg(law, theta: float) -> float:
    """log E[exp(-theta x)] for rates x >= 0, with the law's mass taken as 1."""
    terms = [(-theta * v, p) for v, p in law if p > 0.0]
    total = math.fsum(p for _, p in terms)
    if min(e for e, _ in terms) > -1.0:
        # near theta = 0, log1p keeps the digits that log(1 - tiny) loses
        return math.log1p(math.fsum(p * math.expm1(e) for e, p in terms) / total)
    top = max(e for e, _ in terms)
    return top + math.log(math.fsum(p * math.exp(e - top) for e, p in terms) / total)


def effective_capacity(law, theta: float) -> float:
    """C(theta) = -(1/theta) log E[exp(-theta x)]."""
    return -log_mgf_neg(law, theta) / theta


def surrogate(law, theta: float) -> float:
    """A(theta) = (1 - E[exp(-theta x)]) / theta."""
    return -math.expm1(log_mgf_neg(law, theta)) / theta


def occupancy(profile: Sequence[int], n_channels: int) -> list[int]:
    """Users per channel; `profile` holds 1-based channel ids."""
    counts = [0] * n_channels
    for a in profile:
        counts[a - 1] += 1
    return counts


def user_capacity(game: Game, profile: Sequence[int], user: int) -> float:
    """Effective capacity of `user` (0-based) under a pure profile."""
    a = profile[user]
    c = occupancy(profile, game.n_channels)[a - 1]
    law = rate_law(game.channels[a - 1], c, game.contention)
    return effective_capacity(law, game.thetas[user])


def mean_share(game: Game, profile: Sequence[int], user: int) -> float:
    """Mean rate per contender on the user's channel, the Jensen upper bound."""
    a = profile[user]
    c = occupancy(profile, game.n_channels)[a - 1]
    return game.channels[a - 1].mean() / c


def empirical_capacity(samples: Sequence[float], theta: float) -> float:
    """-(1/theta) log mean exp(-theta x) over observed rates."""
    law = [(float(x), 1.0 / len(samples)) for x in samples]
    return effective_capacity(law, theta)


# --- pure equilibria ---------------------------------------------------------


def is_equilibrium(game: Game, profile: Sequence[int], tol: float = TIE_TOL) -> bool:
    """No user gains more than `tol` by moving alone to another channel."""
    counts = occupancy(profile, game.n_channels)
    for user, a in enumerate(profile):
        theta = game.thetas[user]
        now = effective_capacity(
            rate_law(game.channels[a - 1], counts[a - 1], game.contention), theta
        )
        for b in range(1, game.n_channels + 1):
            if b == a:
                continue
            law = rate_law(game.channels[b - 1], counts[b - 1] + 1, game.contention)
            if effective_capacity(law, theta) > now + tol:
                return False
    return True


def occupancy_vectors(n_users: int, n_channels: int):
    """Every way to put `n_users` identical users on `n_channels` channels."""
    if n_channels == 1:
        yield (n_users,)
        return
    for first in range(n_users + 1):
        for rest in occupancy_vectors(n_users - first, n_channels - 1):
            yield (first, *rest)


def multinomial(counts: Sequence[int]) -> int:
    """Number of profiles with this occupancy vector."""
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def _capacity_table(game: Game, theta: float) -> list[list[float]]:
    """table[m][c]: capacity on channel m with c contenders (c = 0 unused)."""
    n = game.n_users
    return [
        [math.nan]
        + [
            effective_capacity(rate_law(ch, c, game.contention), theta)
            for c in range(1, n + 2)
        ]
        for ch in game.channels
    ]


def _equilibrium_vectors(game: Game, tol: float):
    theta = game.common_theta()
    table = _capacity_table(game, theta)
    m_range = range(game.n_channels)
    for counts in occupancy_vectors(game.n_users, game.n_channels):
        stable = all(
            table[b][counts[b] + 1] <= table[a][counts[a]] + tol
            for a in m_range
            if counts[a]
            for b in m_range
            if b != a
        )
        if stable:
            yield counts, table


def nash_count(game: Game, tol: float = TIE_TOL) -> int:
    """Number of pure equilibrium profiles of a common-exponent game."""
    return sum(multinomial(counts) for counts, _ in _equilibrium_vectors(game, tol))


def best_nash_aggregate(game: Game, tol: float = TIE_TOL) -> float | None:
    """Largest sum of user capacities over pure equilibria, None if there are none."""
    best = None
    for counts, table in _equilibrium_vectors(game, tol):
        agg = math.fsum(c * table[m][c] for m, c in enumerate(counts) if c)
        best = agg if best is None else max(best, agg)
    return best


# --- mixed strategies --------------------------------------------------------


def poisson_binomial(probs: Sequence[float]) -> list[float]:
    """P(K = k) for k = 0..len(probs), K a sum of independent Bernoulli(probs)."""
    dist = [1.0]
    for q in probs:
        nxt = [0.0] * (len(dist) + 1)
        for k, w in enumerate(dist):
            nxt[k] += w * (1.0 - q)
            nxt[k + 1] += w * q
        dist = nxt
    return dist


def field(game: Game, p: Sequence[Sequence[float]]) -> list[list[float]]:
    """omega[n][m]: expected surrogate payoff of user n on channel m.

    The other users draw channels from their rows of `p`; the number of them
    that land on channel m is Poisson-binomial.
    """
    n_users, n_ch = game.n_users, game.n_channels
    omega = [[0.0] * n_ch for _ in range(n_users)]
    for m, ch in enumerate(game.channels):
        for n in range(n_users):
            others = poisson_binomial([p[k][m] for k in range(n_users) if k != n])
            laws = (rate_law(ch, k + 1, game.contention) for k in range(len(others)))
            omega[n][m] = math.fsum(
                w * surrogate(law, game.thetas[n]) for w, law in zip(others, laws)
            )
    return omega


def replicator_max_rhs(game: Game, p: Sequence[Sequence[float]]) -> float:
    """max |p_nm (omega_nm - sum_m' p_nm' omega_nm')| over all entries."""
    omega = field(game, p)
    worst = 0.0
    for row, w in zip(p, omega):
        avg = math.fsum(a * b for a, b in zip(row, w))
        worst = max(worst, max(abs(a * (b - avg)) for a, b in zip(row, w)))
    return worst


def potential_terms(channel: Channel, theta: float, upto: int) -> list[float]:
    """g[c] = sum_{l<=c} E[exp(-theta r / l)] for c = 0..upto."""
    g = [0.0]
    for l in range(1, upto + 1):
        pairs = zip(channel.rates, channel.probs)
        g.append(g[-1] + math.fsum(p * math.exp(-theta * r / l) for r, p in pairs))
    return g


def surrogate_potential(game: Game, profile: Sequence[int]) -> float:
    """(1 - sum_m g_m[c_m]) / theta, the potential of the fair-share surrogate game."""
    theta = game.common_theta()
    counts = occupancy(profile, game.n_channels)
    phi = math.fsum(
        potential_terms(ch, theta, c)[c] for ch, c in zip(game.channels, counts)
    )
    return (1.0 - phi) / theta


def mixed_potential(game: Game, p: Sequence[Sequence[float]]) -> float:
    """Expected surrogate potential when every user mixes independently.

    The potential separates over channels, so only each channel's
    occupancy distribution is needed.
    """
    theta = game.common_theta()
    n = game.n_users
    terms = []
    for m, ch in enumerate(game.channels):
        dist = poisson_binomial([p[k][m] for k in range(n)])
        g = potential_terms(ch, theta, n)
        terms.extend(w * gk for w, gk in zip(dist, g))
    phi = math.fsum(terms)
    return (1.0 - phi) / theta
