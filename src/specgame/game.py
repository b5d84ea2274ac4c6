"""Channel-selection game with effective-capacity payoffs.

N users each pick one of M finite-rate channels. Contention on a channel is
resolved either by splitting the realized rate evenly (FAIR_SHARE) or by
granting the slot to one uniformly chosen contender (SLOT_WINNER). A user's
payoff is the effective capacity of its resulting rate process.

The expected-rate restriction of the game (each user valuing mean rate per
contender) is an exact potential game with the classic Rosenthal potential.
With a common QoS exponent and fair sharing, the full game admits the ordinal
potential -(1/theta) * log phi, where phi sums the exponential rate terms
channel by channel over contender counts.

Payoffs depend only on a user's channel, its exponent and the channel's
occupancy, so equilibria and the potential maximizer are found by scanning
occupancy counts per exponent class, never all M**N profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from specgame.capacity import (
    RateDistribution, approx_utility, check_exponents, effective_capacity
)
from specgame.channels import ChannelSpec

ActionProfile = tuple[int, ...]

TIE_TOL = 1e-12

# Most occupancy states an equilibrium or potential scan visits, and most
# equilibrium profiles enumerate_nash lists.
STATE_LIMIT = 4_000_000
PROFILE_LIMIT = 1_000_000

# Byte budget of one chunk of states in the equilibrium scan.
SCAN_BYTES = 8 << 20


class Contention(Enum):
    """How simultaneous users of one channel share its realized rate."""

    FAIR_SHARE = "fair_share"
    SLOT_WINNER = "slot_winner"

    @classmethod
    def from_str(cls, name: str) -> "Contention":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(
            f"unknown contention model {name!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class GameSpec:
    """N users with QoS exponents `thetas` over M channels."""

    thetas: tuple[float, ...]
    channels: tuple[ChannelSpec, ...]
    contention: Contention = Contention.FAIR_SHARE

    def __post_init__(self) -> None:
        object.__setattr__(self, "thetas", tuple(check_exponents(self.thetas)))
        object.__setattr__(self, "channels", tuple(self.channels))
        if len(self.thetas) < 1:
            raise ValueError("need at least one user")
        if len(self.channels) < 1:
            raise ValueError("need at least one channel")
        for pos, ch in enumerate(self.channels, start=1):
            if ch.id != pos:
                raise ValueError(
                    f"channel ids must be 1..M in order; position {pos} has id {ch.id}"
                )

    @property
    def n_users(self) -> int:
        return len(self.thetas)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def homogeneous_theta(self) -> float | None:
        """The common QoS exponent, or None if users differ."""
        first = self.thetas[0]
        return first if all(t == first for t in self.thetas) else None


def congestion_counts(profile: Sequence[int], n_channels: int) -> tuple[int, ...]:
    """Number of users on each channel, indexed by channel id - 1."""
    counts = [0] * n_channels
    for a in profile:
        counts[a - 1] += 1
    return tuple(counts)


def _occupancy(game: GameSpec, profile: Sequence[int]) -> tuple[ActionProfile, tuple[int, ...]]:
    """The profile as a tuple of channel ids, checked against the game, and
    its congestion counts."""
    prof = tuple(int(a) for a in profile)
    if len(prof) != game.n_users:
        raise ValueError(f"profile has {len(prof)} entries for {game.n_users} users")
    if any(not 1 <= a <= game.n_channels for a in prof):
        raise ValueError(f"profile entries must be channel ids in 1..{game.n_channels}")
    return prof, congestion_counts(prof, game.n_channels)


def shared_rate_distribution(
    channel: ChannelSpec, contenders: int, contention: Contention
) -> RateDistribution:
    """Per-user rate law on `channel` when `contenders` users occupy it."""
    if contenders < 1:
        raise ValueError("contenders must be >= 1")
    c = contenders
    if contention is Contention.FAIR_SHARE:
        return RateDistribution(
            values=tuple(r / c for r in channel.rates),
            probs=channel.probs,
        )
    # SLOT_WINNER: full rate with prob pi_k / c, otherwise 0.
    mass: dict[float, float] = {}
    for r, p in zip(channel.rates, channel.probs):
        mass[r] = mass.get(r, 0.0) + p / c
    if c > 1:
        mass[0.0] = mass.get(0.0, 0.0) + (1.0 - 1.0 / c)
    values = tuple(sorted(mass))
    return RateDistribution(values=values, probs=tuple(mass[v] for v in values))


def user_rate_distribution(
    game: GameSpec, profile: Sequence[int], user: int
) -> RateDistribution:
    """Rate law seen by `user` (0-based) under `profile`."""
    prof, counts = _occupancy(game, profile)
    channel = game.channels[prof[user] - 1]
    return shared_rate_distribution(channel, counts[prof[user] - 1], game.contention)


def utility(game: GameSpec, profile: Sequence[int], user: int) -> float:
    """Effective capacity of `user`'s rate process under `profile`."""
    return effective_capacity(
        user_rate_distribution(game, profile, user), game.thetas[user]
    )


def surrogate_utility(game: GameSpec, profile: Sequence[int], user: int) -> float:
    """First-order surrogate payoff (1 - E[exp(-theta r)]) / theta."""
    return approx_utility(
        user_rate_distribution(game, profile, user), game.thetas[user]
    )


def expected_rate_share(game: GameSpec, profile: Sequence[int], user: int) -> float:
    """Mean rate per contender on the user's channel; same under both models."""
    prof, counts = _occupancy(game, profile)
    channel = game.channels[prof[user] - 1]
    return channel.law.mean() / counts[prof[user] - 1]


def rosenthal_potential(game: GameSpec, profile: Sequence[int]) -> float:
    """Exact potential of the expected-rate-share game: sum_m sum_{l<=c_m} mean_m / l."""
    prof, counts = _occupancy(game, profile)
    total = 0.0
    for ch, c in zip(game.channels, counts):
        mr = ch.law.mean()
        total += sum(mr / l for l in range(1, c + 1))
    return total


def _exp_term_table(game: GameSpec, theta: float, upto: int) -> np.ndarray:
    """g[m, c] = sum_{l<=c} E[exp(-theta r_m / l)] for c = 0..upto, as [M, upto+1].

    phi of a profile is sum_m g[m, c_m], added in channel order.
    """
    terms = np.zeros((game.n_channels, upto + 1))
    for mi, ch in enumerate(game.channels):
        for l in range(1, upto + 1):
            terms[mi, l] = sum(
                p * math.exp(-theta * r / l) for r, p in zip(ch.rates, ch.probs)
            )
    return np.cumsum(terms, axis=1)


def _sum_columns(values: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array, added column by column from the left.

    The same order as Python's sum() over a row, so results agree bit for bit.
    """
    total = values[:, 0].copy()
    for col in range(1, values.shape[1]):
        total += values[:, col]
    return total


def _phi(game: GameSpec, counts: Sequence[int], theta: float) -> float:
    g = _exp_term_table(game, theta, max(counts))
    return float(sum(g[mi, c] for mi, c in enumerate(counts)))


def _require_homogeneous(game: GameSpec) -> float:
    theta = game.homogeneous_theta()
    if theta is None:
        raise ValueError(
            "this potential needs a common QoS exponent; users have "
            f"{sorted(set(game.thetas))}"
        )
    return theta


def ordinal_potential(game: GameSpec, profile: Sequence[int]) -> float:
    """Ordinal potential -(1/theta) log phi of the fair-share game.

    Requires a common QoS exponent. Unilateral deviations change this value
    with the same sign as the deviator's utility change (fair-share model).
    """
    theta = _require_homogeneous(game)
    prof, counts = _occupancy(game, profile)
    return -math.log(_phi(game, counts, theta)) / theta


def surrogate_potential(game: GameSpec, profile: Sequence[int]) -> float:
    """Exact potential (1 - phi) / theta of the surrogate-payoff game."""
    theta = _require_homogeneous(game)
    prof, counts = _occupancy(game, profile)
    return (1.0 - _phi(game, counts, theta)) / theta


# --- pure-strategy equilibrium tooling -------------------------------------

_PAYOFFS: dict[str, Callable[[RateDistribution, float], float]] = {
    "capacity": effective_capacity,
    "surrogate": approx_utility,
}


def _count_utility_tables(game: GameSpec, payoff: str) -> list[np.ndarray]:
    """Per user: array [M, N] of utility on channel m with c contenders.

    Built through the same distribution + capacity path as the utility op,
    so table lookups agree bit-for-bit with direct evaluation.
    """
    try:
        payoff_fn = _PAYOFFS[payoff]
    except KeyError:
        raise ValueError(f"unknown payoff {payoff!r}; expected 'capacity' or 'surrogate'")
    N, M = game.n_users, game.n_channels
    by_theta: dict[float, np.ndarray] = {}
    for theta in set(game.thetas):
        tab = np.empty((M, N))
        for mi, ch in enumerate(game.channels):
            for c in range(1, N + 1):
                dist = shared_rate_distribution(ch, c, game.contention)
                tab[mi, c - 1] = payoff_fn(dist, theta)
        by_theta[theta] = tab
    return [by_theta[t] for t in game.thetas]


@dataclass(frozen=True)
class NashResult:
    """Outcome of a pure-Nash check; witness fields set when not an equilibrium."""

    is_nash: bool
    user: int | None = None
    better_channel: int | None = None
    gain: float | None = None


def _improvement(table: np.ndarray, a: int, counts, tol: float) -> tuple[int, float] | None:
    """The first channel that pays a user on channel `a` more than `tol`
    above staying, with the gain, or None. `table` is the user's [M, N]."""
    current = table[a - 1, counts[a - 1] - 1]
    for b in range(1, len(counts) + 1):
        if b != a and table[b - 1, counts[b - 1]] > current + tol:
            return b, float(table[b - 1, counts[b - 1]] - current)
    return None


def _find_improvement(
    tables: list[np.ndarray],
    prof: ActionProfile,
    counts: Sequence[int],
    tol: float,
) -> NashResult:
    for n, a in enumerate(prof):
        better = _improvement(tables[n], a, counts, tol)
        if better is not None:
            return NashResult(False, user=n, better_channel=better[0], gain=better[1])
    return NashResult(True)


def is_nash(
    game: GameSpec,
    profile: Sequence[int],
    tol: float = TIE_TOL,
    payoff: str = "capacity",
) -> NashResult:
    """Check unilateral deviations; a deviation must gain more than `tol` to count."""
    prof, counts = _occupancy(game, profile)
    tables = _count_utility_tables(game, payoff)
    return _find_improvement(tables, prof, counts, tol)


def _exponent_classes(game: GameSpec) -> list[list[int]]:
    """User indices grouped by QoS exponent, classes in order of their first user."""
    classes: dict[float, list[int]] = {}
    for n, theta in enumerate(game.thetas):
        classes.setdefault(theta, []).append(n)
    return list(classes.values())


def occupancy_vectors(users: int, channels: int) -> np.ndarray:
    """Every way to put `users` identical users on `channels` channels, as [S, M].

    Rows are in lexicographic order, in the smallest unsigned type that holds
    `users`. The table is built whole, not in chunks: about 2 * M + 12 bytes
    per state at the peak of the build.
    """
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(users))
    left = np.array([users], dtype=np.int32)
    for _ in range(channels - 1):
        # each row branches on 0..left users for the next channel, ascending
        parent = np.repeat(np.arange(len(rows), dtype=np.int32), left + 1)
        put = np.arange(len(parent), dtype=np.int32)
        put -= np.repeat(np.cumsum(left + 1, dtype=np.int32) - (left + 1), left + 1)
        rows = np.column_stack([rows[parent], put.astype(rows.dtype)])
        left = left[parent] - put
    return np.column_stack([rows, left.astype(rows.dtype)])


def _check_state_count(class_sizes: Sequence[int], channels: int) -> None:
    states = math.prod(math.comb(s + channels - 1, channels - 1) for s in class_sizes)
    if states > STATE_LIMIT:
        raise ValueError(
            f"{states} occupancy states to scan ({len(class_sizes)} exponent "
            f"classes over {channels} channels), beyond the limit of "
            f"{STATE_LIMIT}; shrink the game"
        )


def _improvable(
    table: np.ndarray, own: np.ndarray, counts: np.ndarray, tol: float
) -> np.ndarray:
    """Per state, whether some user of one class has an improving move.

    `table` is the class's payoff table padded to [M, N+2]: column c holds
    the payoff with c users, and columns 0 and N+1 hold -inf. `own` [S, M]
    counts the class's users per channel and `counts` [S, M] all users. The
    test is _find_improvement's `candidate > current + tol`.
    """
    M, width = table.shape
    base = np.arange(M) * width + counts
    stay = table.take(base)
    move = table.take(base + 1)
    rows = np.arange(len(move))
    best = move.argmax(axis=1)
    top = move[rows, best]
    move[rows, best] = -np.inf
    runner_up = move.max(axis=1)
    # the best payoff on any channel other than the one a user is on
    elsewhere = np.where(best[:, None] == np.arange(M), runner_up[:, None], top[:, None])
    return ((own > 0) & (elsewhere > stay + tol)).any(axis=1)


def _equilibrium_states(
    occupancy: list[np.ndarray], tables: list[np.ndarray], tol: float
) -> list[np.ndarray]:
    """Per class, the row of `occupancy` it takes in each equilibrium state.

    States run over the product of the classes' occupancy rows, the last
    class varying fastest, in chunks of SCAN_BYTES.
    """
    M = tables[0].shape[0]
    radix = [len(occ) for occ in occupancy]
    edge = np.full((M, 1), -np.inf)
    padded = [np.hstack([edge, table, edge]) for table in tables]
    # a state costs at most 8 bytes per channel for each class's occupancy row
    # and for each of _improvable's eight work arrays
    chunk = max(1, SCAN_BYTES // (8 * M * (len(occupancy) + 8)))
    total = math.prod(radix)
    found: list[list[np.ndarray]] = [[] for _ in occupancy]
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        digits = []
        for size in reversed(radix):
            flat, digit = np.divmod(flat, size)
            digits.append(digit)
        digits.reverse()
        own = [occ[d] for occ, d in zip(occupancy, digits)]
        counts = np.add.reduce(own, dtype=np.int64)
        # drop a state as soon as one class can improve
        alive = np.arange(len(counts))
        for table, x in zip(padded, own):
            alive = alive[~_improvable(table, x[alive], counts[alive], tol)]
        for rows, d in zip(found, digits):
            rows.append(d[alive])
    return [np.concatenate(rows) for rows in found]


def _multinomial(counts: Sequence[int]) -> int:
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def _arrangements(counts: Sequence[int], dtype) -> np.ndarray:
    """Distinct orderings of a multiset holding counts[m] copies of m, as [P, sum].

    Built one position at a time: each row branches on every channel it has
    left, in ascending order, so rows stay in lexicographic order.
    """
    rows = np.zeros((1, 0), dtype=dtype)
    left = np.array([counts], dtype=np.int64)
    for _ in range(sum(counts)):
        parent, m = np.nonzero(left)
        rows = np.column_stack([rows[parent], m.astype(dtype)])
        left = left[parent]
        left[np.arange(len(m)), m] -= 1
    return rows


def _expand(
    classes: list[list[int]],
    occupancy: list[np.ndarray],
    states: list[np.ndarray],
    n_users: int,
) -> np.ndarray:
    """Every profile [P, N] (0-based channels) of the given states, lexicographic.

    Profiles use the smallest integer type that holds a channel index.
    Refuses before building any profile when there are more than PROFILE_LIMIT.
    """
    sizes = np.ones(len(states[0]))
    for occ, digits in zip(occupancy, states):
        ways = np.zeros(len(occ))
        for key in np.flatnonzero(np.bincount(digits, minlength=len(occ))):
            # clamped, so that a huge count cannot overflow a float
            ways[key] = min(_multinomial(occ[key].tolist()), PROFILE_LIMIT + 1)
        sizes *= ways[digits]
    if sizes.sum() > PROFILE_LIMIT:
        raise ValueError(
            f"the equilibria expand to more than {PROFILE_LIMIT} profiles, beyond "
            "the limit of profiles to list; shrink the game"
        )
    dtype = np.min_scalar_type(occupancy[0].shape[1])
    profiles = np.zeros((len(states[0]), n_users), dtype=dtype)
    owner = np.arange(len(profiles))  # the state each partial profile came from
    for users, occ, digits in zip(classes, occupancy, states):
        # group the partial profiles by this class's occupancy row
        key_of = digits[owner]
        order = np.argsort(key_of, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(key_of, minlength=len(occ)))])
        parts, owners = [profiles[:0]], [owner[:0]]
        for key in np.flatnonzero(np.diff(bounds)):
            sel = order[bounds[key] : bounds[key + 1]]
            perms = _arrangements(occ[key].tolist(), dtype)
            block = np.repeat(profiles[sel], len(perms), axis=0)
            block[:, users] = np.tile(perms, (len(sel), 1))
            parts.append(block)
            owners.append(np.repeat(owner[sel], len(perms)))
        profiles, owner = np.concatenate(parts), np.concatenate(owners)
    return profiles[np.lexsort(profiles.T[::-1])]


def enumerate_nash(
    game: GameSpec,
    tol: float = TIE_TOL,
    payoff: str = "capacity",
) -> list[ActionProfile]:
    """All pure Nash profiles, in lexicographic order.

    Users that share a QoS exponent are interchangeable, so the scan runs
    over states, one occupancy vector per exponent class: C(N+M-1, M-1) of
    them for a common exponent instead of M**N profiles. Only equilibrium
    states are expanded into profiles. Refuses, naming the limit, when the
    states to scan exceed STATE_LIMIT or the profiles to list PROFILE_LIMIT.
    """
    classes = _exponent_classes(game)
    _check_state_count([len(users) for users in classes], game.n_channels)
    tables = _count_utility_tables(game, payoff)
    occupancy = [occupancy_vectors(len(users), game.n_channels) for users in classes]
    states = _equilibrium_states(
        occupancy, [tables[users[0]] for users in classes], tol
    )
    profiles = _expand(classes, occupancy, states, game.n_users)
    return list(zip(*(profiles.T + 1).tolist()))


def _state_potentials(game: GameSpec, theta: float, states: np.ndarray) -> np.ndarray:
    """ordinal_potential of every occupancy state [S, M], with its arithmetic:
    phi added in channel order, then math.log state by state."""
    M = game.n_channels
    phi = _sum_columns(_exp_term_table(game, theta, game.n_users)[np.arange(M), states])
    return -np.array([math.log(v) for v in phi.tolist()]) / theta


def potential_maximizer(game: GameSpec) -> ActionProfile:
    """The lexicographically first profile that maximizes `ordinal_potential`.

    Needs a common QoS exponent. The potential depends on occupancy counts
    only, so the scan runs over count vectors; like the potential itself, it
    follows fair sharing whatever the game's contention model.
    """
    theta = _require_homogeneous(game)
    N, M = game.n_users, game.n_channels
    _check_state_count([N], M)
    states = occupancy_vectors(N, M)
    potential = _state_potentials(game, theta, states)
    ties = states[potential == potential.max()]
    # a state's first profile puts its users on channels in ascending order
    return min(tuple(np.repeat(np.arange(1, M + 1), x).tolist()) for x in ties)


def total_utility(game: GameSpec, profiles: Sequence[Sequence[int]]) -> np.ndarray:
    """Sum of the users' effective capacities in each profile, from the count tables.

    Added in user order, so each entry equals
    sum(utility(game, p, u) for u in range(N)) bit for bit.
    """
    N, M = game.n_users, game.n_channels
    if len(profiles) == 0:
        return np.zeros(0)
    prof = np.array(profiles, dtype=np.int64)
    prof -= 1
    if prof.ndim != 2 or prof.shape[1] != N:
        raise ValueError(f"each profile must list {N} channel ids")
    if prof.min() < 0 or prof.max() >= M:
        raise ValueError(f"profile entries must be channel ids in 1..{M}")
    tables = np.stack(_count_utility_tables(game, "capacity"))
    # occupancy counts in the smallest integer type that holds N: they set
    # the peak memory of analyze on the largest presets
    dtype = np.min_scalar_type(N)
    counts = np.stack([(prof == m).sum(axis=1, dtype=dtype) for m in range(M)], axis=1)
    own = np.take_along_axis(counts, prof, axis=1)
    return _sum_columns(tables[np.arange(N), prof, own - 1])


class BestResponseLimitError(RuntimeError):
    """Raised when the improvement path does not settle in time."""

    def __init__(self, steps: int, profile: ActionProfile):
        super().__init__(f"no equilibrium after {steps} best-response steps")
        self.steps = steps
        self.profile = profile


@dataclass(frozen=True)
class BestResponsePath:
    profile: ActionProfile
    steps: int


def best_response_path(
    game: GameSpec,
    start: Sequence[int],
    rng: np.random.Generator,
    max_steps: int,
    tol: float = TIE_TOL,
    payoff: str = "capacity",
) -> BestResponsePath:
    """Random-order best-response dynamics from `start`.

    Each step picks a uniformly random user that has an improving deviation
    and moves it to its best channel (ties toward the lowest channel id).
    Raises BestResponseLimitError (carrying the last profile) if more than
    `max_steps` improvements occur without reaching an equilibrium.
    """
    prof, counts = map(list, _occupancy(game, start))
    tables = _count_utility_tables(game, payoff)
    for step in range(max_steps + 1):
        improvers = [n for n, a in enumerate(prof) if _improvement(tables[n], a, counts, tol)]
        if not improvers:
            return BestResponsePath(tuple(prof), step)
        if step == max_steps:
            break
        n = improvers[int(rng.integers(len(improvers)))]
        a = prof[n]
        options = np.array(
            [
                tables[n][b - 1, counts[b - 1] - (1 if b == a else 0)]
                for b in range(1, game.n_channels + 1)
            ]
        )
        best = int(np.argmax(options)) + 1  # argmax takes the lowest id on ties
        counts[a - 1] -= 1
        counts[best - 1] += 1
        prof[n] = best
    raise BestResponseLimitError(max_steps, tuple(prof))


# --- potential verification --------------------------------------------------


@dataclass(frozen=True)
class PotentialReport:
    """What a sweep over unilateral deviations found."""

    exhaustive: bool
    deviations_checked: int
    epg_max_abs_error: float
    opg_sign_disagreements: int | None
    opg_zero_mismatches: int | None


def _lex_rank(rows: np.ndarray, users: int) -> np.ndarray:
    """Row index of each occupancy row [K, M] in occupancy_vectors(users, M).

    A row is preceded by every row that agrees with it before some channel i
    and has fewer users on i: ways[L, M-i] - ways[L - c_i, M-i] of them, where
    L users are left for channels i.. and ways[L, k] = C(L+k-1, k-1).
    """
    M = rows.shape[1]
    ways = np.ones((users + 1, M + 1), dtype=np.int64)
    for k in range(2, M + 1):
        ways[:, k] = np.cumsum(ways[:, k - 1])
    after = users - np.cumsum(rows[:, :-1], axis=1, dtype=np.int64)
    before = np.hstack([np.full((len(rows), 1), users), after[:, :-1]])
    parts = np.arange(M, 1, -1)  # channels i.. for i = 0..M-2
    return (ways[before, parts] - ways[after, parts]).sum(axis=1)


def verify_potentials(game: GameSpec, zero_tol: float = TIE_TOL) -> PotentialReport:
    """Compare payoff deltas against potential deltas over every unilateral deviation.

    Exact-potential check: max |delta expected-rate-share - delta Rosenthal|.
    Ordinal check (common QoS exponent only): count deviations whose utility
    delta and ordinal-potential delta disagree in sign, or where exactly one
    of the two is zero within `zero_tol`. Utilities follow the game's own
    contention model, so slot-winner games may legitimately report nonzero
    disagreements; the potential algebra matches fair sharing.

    Every delta depends only on the occupancy counts c and the move a -> b,
    so the scan runs over occupancy states, one move at a time. A state's
    move counts multinomial(N; c) * c_a times, once per profile-level
    deviation, so all M**N * N * (M-1) of them are covered exactly.
    """
    N, M = game.n_users, game.n_channels
    _check_state_count([N], M)
    states = occupancy_vectors(N, M)
    checked = M**N * N * (M - 1)
    # exact integer weights: int64 only where no sum can overflow it
    dtype = np.int64 if checked < 2**63 else object
    weights = np.array([_multinomial(x) for x in states.tolist()], dtype=dtype)

    theta = game.homogeneous_theta()
    means = np.array([ch.law.mean() for ch in game.channels])
    cum_share = np.zeros((M, N + 1))
    cum_share[:, 1:] = np.cumsum(means[:, None] / np.arange(1, N + 1)[None, :], axis=1)
    share_potential = _sum_columns(cum_share[np.arange(M), states])
    if theta is not None:
        table = _count_utility_tables(game, "capacity")[0]
        potential = _state_potentials(game, theta, states)

    step = np.eye(M, dtype=np.int64)
    epg_max = 0.0
    sign_bad = zero_bad = 0
    for a in range(M):
        src = np.flatnonzero(states[:, a])
        x = states[src].astype(np.int64)
        movers = weights[src] * x[:, a]
        for b in range(M):
            if b == a:
                continue
            moved = x - step[a] + step[b]
            dst = _lex_rank(moved, N)
            d_share = means[b] / moved[:, b] - means[a] / x[:, a]
            d_phi_share = share_potential[dst] - share_potential[src]
            epg_max = max(epg_max, float(np.abs(d_share - d_phi_share).max()))
            if theta is not None:
                d_util = table[b, x[:, b]] - table[a, x[:, a] - 1]
                d_phi_ord = potential[dst] - potential[src]
                u_zero = np.abs(d_util) <= zero_tol
                p_zero = np.abs(d_phi_ord) <= zero_tol
                zero_bad += int(movers[u_zero != p_zero].sum())
                flipped = ~u_zero & ~p_zero & ((d_util > 0) != (d_phi_ord > 0))
                sign_bad += int(movers[flipped].sum())
    return PotentialReport(
        exhaustive=True,
        deviations_checked=checked,
        epg_max_abs_error=epg_max,
        opg_sign_disagreements=sign_bad if theta is not None else None,
        opg_zero_mismatches=zero_bad if theta is not None else None,
    )
