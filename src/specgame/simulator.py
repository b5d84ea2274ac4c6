"""Slot-level Monte Carlo engine.

Each trial runs the sense-transmit-update loop: users pick channels from
their strategies, channel states are drawn, contention splits the realized
rates, the algorithm updates on the payoffs, and the run is scored. One
lockstep engine runs every algorithm. `learn`, `sla` and `random` are small
policies, and a block of trials advances together. Its strategies,
estimates and one-hot actions are channel-major, [M, T, N], so each
per-slot operation over channels works on whole contiguous [T, N] slabs: a
running sum is an accumulate over the leading axis, and a sum over
channels adds the slabs in channel order, one after the other. That is the
order numpy's row sum uses for up to seven values, so the results are the
same bits as a row-major layout would give. From eight channels on numpy
sums a row pairwise, and the two layouts may differ in the last bits of p
and q; the traces keep the [slots, T, N, M] layout either way.

Every trial draws from its own generator (`trial_rng`), and every slot
consumes exactly N + 2M uniforms in a fixed layout: N for the actions in
user order, M for the channel states and M for collision tie-breaks, both
in channel order. What a trial consumes therefore never depends on
collisions or on the trials beside it, so trial i's result is the same
whatever the trial count, block size or chunk size.

Uniforms are drawn a chunk of slots at a time, and the chunk's channel
states with them. A policy that learns steps through the chunk slot by
slot, since each slot's actions depend on the last update. Its slot step
allocates nothing: sampling and contention write into one workspace of
buffers made once per block (`_Work`), and the update into buffers the
policy makes on its first call. One that does not learn (`learns` false,
the random baseline) never reads payoffs, so its `play` acts, contends and
logs the whole chunk as [k, T, N] arrays. The held baseline's takers and
ranks never change, so it only gathers each user's rate and tie-break.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from specgame.capacity import effective_capacity
from specgame.channels import RateSampler
from specgame.game import Contention, GameSpec, congestion_counts, shared_rate_distribution
from specgame.learning import StepSchedule, check_estimates, check_simplex_rows

# Byte budget of the per-slot payoff log of one untraced block of trials.
# Larger experiments run as several blocks.
BLOCK_BYTES = 16 << 20

# Slots of uniforms drawn from each trial's generator at once. The engine
# checks its invariants once per chunk.
CHUNK_SLOTS = 64

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One output of the splitmix64 sequence seeded at x.

    Written out rather than delegated to numpy's SeedSequence so the
    base_seed -> trial stream map is pinned by this file, not by whatever
    spawning scheme a numpy release happens to use.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(base_seed: int, trial_index: int) -> int:
    """splitmix64(splitmix64(base_seed) XOR i): mixing the base seed first
    keeps the trial sets of nearby base seeds apart."""
    return splitmix64(splitmix64(base_seed & _MASK64) ^ (trial_index & _MASK64))


def trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    """The dedicated random stream of one trial."""
    return np.random.default_rng(trial_seed(base_seed, trial_index))


def worker_count() -> int:
    """Always 1: the lockstep engine runs every trial in the calling thread.

    Kept because the benchmark harness (perfbench/run.py) imports it and
    reports the count.
    """
    return 1


@dataclass(frozen=True)
class SimConfig:
    """Everything one experiment needs besides an output directory.

    `window`, when set, fixes the number of trailing slots used for the
    empirical capacity estimate; left as None the estimate starts at the
    convergence slot (or halfway through when the trial never converges).
    """

    game: GameSpec
    iterations: int = 2000
    trials: int = 1
    base_seed: int = 0
    algorithm: str = "learn"
    eta: float = 0.1
    lam: float | None = None  # None -> the 1/t schedule
    epsilon: float = 0.01
    sla_gain: float = 0.08
    sla_rate_cap: float | None = None  # None -> largest channel rate
    random_per_slot: bool = False
    window: int | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.base_seed <= _MASK64:
            raise ValueError("base_seed must fit in an unsigned 64-bit integer")
        if self.algorithm not in POLICIES:
            raise ValueError(
                f"algorithm must be one of {tuple(POLICIES)}, got {self.algorithm!r}"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        if self.window is not None and not 1 <= self.window <= self.iterations:
            raise ValueError(
                f"window must be in 1..iterations, got {self.window!r}"
            )
        if not 0.0 < self.sla_gain < 1.0:
            raise ValueError(f"sla_gain must be in (0, 1), got {self.sla_gain!r}")
        cap = self.sla_rate_cap
        if cap is not None and not (cap > 0.0 and math.isfinite(cap)):
            raise ValueError(f"sla_rate_cap must be > 0 and finite, got {cap!r}")
        if self.algorithm == "sla" and self.rate_cap() <= 0.0:
            raise ValueError("sla_rate_cap must be set when every channel's top rate is 0")
        # surface bad step parameters at config time, not mid-trial
        StepSchedule(eta=self.eta, lam=self.lam)

    def rate_cap(self) -> float:
        if self.sla_rate_cap is not None:
            return self.sla_rate_cap
        return max(spec.rates[-1] for spec in self.game.channels)


@dataclass(frozen=True, eq=False)
class TrialTraces:
    """Per-slot state of one trial; slot t holds the post-update values.

    Compares by identity: element-wise comparison of the arrays would be
    both slow and ambiguous.
    """

    p: np.ndarray  # [iterations, N, M]
    q: np.ndarray  # [iterations, N, M], zero for algorithms without estimates
    actions: np.ndarray  # [iterations, N], 1-based channel ids
    payoffs: np.ndarray  # [iterations, N]


@dataclass(frozen=True)
class TrialResult:
    """One scored trial. Its traces, kept when traced, never take part in ==."""

    trial: int
    profile: tuple[int, ...]
    conv_slot: int | None
    ec_closed: tuple[float, ...]
    ec_empirical: tuple[float, ...]
    traces: TrialTraces | None = field(default=None, compare=False)

    @property
    def agg_ec_closed(self) -> float:
        return float(sum(self.ec_closed))

    @property
    def agg_ec_empirical(self) -> float:
        return float(sum(self.ec_empirical))


def resolve_contention(
    model: Contention,
    realization,
    profile,
    tiebreak,
) -> np.ndarray:
    """Per-user payoffs for one slot.

    FairShare splits each channel's realized rate evenly among its takers.
    SlotWinner hands the whole rate to one taker per channel: with c takers
    in user order, taker floor(u * c), where u is the channel's entry of
    `tiebreak` (M uniforms in [0, 1), read under either model so the
    stream layout stays fixed).
    """
    rates = np.asarray(realization, dtype=float)
    payoffs = np.zeros(len(profile))
    if model is Contention.FAIR_SHARE:
        counts = congestion_counts(profile, len(rates))
        for user, a in enumerate(profile):
            payoffs[user] = rates[a - 1] / counts[a - 1]
        return payoffs
    takers: dict[int, list[int]] = {}
    for user, a in enumerate(profile):
        takers.setdefault(a, []).append(user)
    for a, users in takers.items():
        payoffs[users[int(tiebreak[a - 1] * len(users))]] = rates[a - 1]
    return payoffs


class _Work:
    """The preallocated buffers of one engine step, and fixed views of them.

    `shape` is the shape of the action uniforms the step reads: [T, N] for
    one slot of a block, [k, T, N] for a chunk of k slots. Every buffer is
    channel-major, [M, *shape], or [M, *shape[:-1], 1] for one value per
    channel. `_sample` writes the one-hot `chosen`, and `_contend` reads it.
    """

    def __init__(self, m: int, shape: tuple[int, ...]) -> None:
        full, per_channel = (m,) + shape, (m,) + shape[:-1] + (1,)
        self.cum = np.empty((m - 1,) + shape)  # running sums of p
        # whether a running sum is above u; row 0 is the empty sum
        above = np.zeros((m + 1,) + shape, dtype=bool)
        above[-1] = True
        self.above_sums, self.above_hi, self.above_lo = above[1:-1], above[1:], above[:-1]
        self.chosen = np.empty(full, dtype=bool)
        self.chosen_u8 = self.chosen.view(np.uint8)
        # takers so far in user order, in the smallest integer type that
        # holds N, which keeps chunk-sized buffers small
        self.taken = np.empty(full, dtype=np.min_scalar_type(shape[-1]))
        self.counts = self.taken[..., -1:]
        self.draw = np.empty(per_channel)  # slot winner: u * c
        # whether the takers so far are more than u * c; column 0 is no user
        past = np.zeros((m,) + shape[:-1] + (shape[-1] + 1,), dtype=bool)
        self.past, self.past_before = past[..., 1:], past[..., :-1]
        self.paid = np.empty(full, dtype=bool)
        self.share = np.empty(per_channel)  # fair share: each taker's rate
        self.shares = np.broadcast_to(self.share, full)


def _contend(model: Contention, work: _Work, rates, tiebreak, out) -> None:
    """resolve_contention for a block of trials, over any leading shape.

    Reads the channel-major one-hot [M, ..., N] of the users' actions from
    `work.chosen`. rates are channel-major and broadcast over users,
    [M, ..., N], and tiebreak is [M, ..., 1]. Writes the [..., N] payoffs to
    `out`: per user, the sum over channels of what it gets on each. It gets
    something on one channel at most, so the sum adds one value to the
    reduction's zero, which is exact.
    """
    taken, counts = work.taken, work.counts
    np.add.accumulate(work.chosen_u8, -1, taken.dtype, taken)
    if model is Contention.FAIR_SHARE:
        # an empty channel divides by 1 instead of 0; no user reads it, and
        # fair share reads nothing else of `taken`
        np.maximum(counts, 1, out=counts)
        np.divide(rates[..., :1], counts, out=work.share)
        np.add.reduce(work.shares, 0, None, out, where=work.chosen)
        return
    # The winner's 1-based rank among the channel's c takers is
    # floor(u * c) + 1: the first taker whose count so far is above u * c.
    # Counts only grow, and only at takers, so it is where the count is
    # above u * c and the count before it is not.
    np.multiply(tiebreak, counts, out=work.draw)
    np.greater(taken, work.draw, out=work.past)
    np.greater(work.past, work.past_before, out=work.paid)
    np.add.reduce(rates, 0, None, out, where=work.paid)


def _sample(p: np.ndarray, u: np.ndarray, work: _Work) -> np.ndarray:
    """Inverse-CDF draws from the channel-major strategies p [M, ...] at
    uniforms u [...], as their channel-major one-hot, `work.chosen`.

    The arithmetic of learning.sample_profile: running sums in channel
    order, the last one taken as 1, and the first sum above u
    (bisect_right). Running sums never fall, so a channel is drawn where
    its sum is above u and the sum before it is not.
    """
    np.add.accumulate(p[:-1], 0, None, work.cum)
    np.greater(work.cum, u, out=work.above_sums)
    return np.greater(work.above_hi, work.above_lo, out=work.chosen)


@dataclass
class BlockState:
    """The strategies and estimates of a block of trials, updated in place.

    Both are channel-major, [M, T, N]: channel m's values for every trial
    and user are one contiguous [T, N] slab, and a reduction over channels
    works through the slabs in channel order. Up to seven channels that
    gives the bits of a row-major [T, N, M] layout; from eight on p and q
    may differ from it in the last bits (see the module docstring).
    """

    p: np.ndarray  # [M, T, N]
    q: np.ndarray  # [M, T, N], zero for policies without estimates
    slot: int = 0  # slots a learner has completed; its step size reads it


class Policy:
    """How one algorithm learns from a block of trials; one instance serves
    one block.

    A policy that learns (`learns` true) acts by `_sample` on its
    strategies, and `update(state, chosen, payoffs)` takes the channel-major
    one-hot [M, T, N] of the chosen channels and the [T, N] payoffs. It works
    on whole [T, N] slabs: per-user values broadcast over the leading channel
    axis, and sums over channels add the slabs in channel order, the order of
    numpy's row sum up to seven channels. Its buffers are allocated on the
    first update. The engine checks its state once per chunk.
    """

    learns = True  # whether it updates on payoffs; the convergence slot is read off p

    def update(self, state: BlockState, chosen: np.ndarray, payoffs: np.ndarray) -> None:
        raise NotImplementedError

    def check(self, state: BlockState) -> None:
        check_simplex_rows(state.p.transpose(1, 2, 0))


class LearnPolicy(Policy):
    """Estimate tracking plus multiplicative reweighting: the block form of
    learning.update_estimates followed by update_probabilities."""

    def __init__(self, config: SimConfig) -> None:
        self.schedule = StepSchedule(eta=config.eta, lam=config.lam)
        self.log_gain = math.log1p(config.eta)
        self.thetas = np.asarray(config.game.thetas, dtype=float)
        self.neg_thetas = -self.thetas
        self.w = self.row = None

    def update(self, state, chosen, payoffs):
        if self.w is None:
            self.w, self.row = np.empty_like(state.p), np.empty_like(payoffs)
        w, row, p, q = self.w, self.row, state.p, state.q
        # payoff_transform, less its per-call check of the exponents
        np.multiply(self.neg_thetas, payoffs, out=row)
        np.expm1(row, out=row)
        np.divide(row, self.neg_thetas, out=row)
        # the chosen estimates move by lambda towards it
        np.subtract(row, q, out=w)
        np.multiply(w, self.schedule.lambda_at(state.slot), out=w)
        np.add(w, q, out=q, where=chosen)
        np.multiply(q, self.log_gain, out=w)
        np.maximum.reduce(w, 0, None, row)
        np.subtract(w, row, out=w)
        np.exp(w, out=w)
        np.multiply(w, p, out=w)
        np.add.reduce(w, 0, None, row)
        np.divide(w, row, out=p)

    def check(self, state):
        super().check(state)
        check_estimates(state.q.transpose(1, 2, 0), self.thetas)


class SLAPolicy(Policy):
    """Linear reward-inaction: the block form of learning.sla_update."""

    def __init__(self, config: SimConfig) -> None:
        self.b = config.sla_gain
        self.r_max = config.rate_cap()
        self.w = self.row = None

    def update(self, state, chosen, payoffs):
        if self.w is None:
            self.w, self.row = np.empty_like(state.p), np.empty_like(payoffs)
        w, row, p = self.w, self.row, state.p
        # payoffs are >= 0, so only the upper clip of sla_update can act
        np.divide(payoffs, self.r_max, out=row)
        np.minimum(row, 1.0, out=row)
        np.multiply(row, self.b, out=row)
        np.subtract(chosen, p, out=w)
        np.multiply(w, row, out=w)
        np.add(w, p, out=w)
        np.add.reduce(w, 0, None, row)
        np.divide(w, row, out=p)


class RandomPolicy(Policy):
    """Uniform choices: one profile held from the first slot, or a fresh
    one every slot. Draws like learning.random_baseline_profile.

    It never reads payoffs, so the engine runs it a chunk at a time through
    `play`. Its strategies stay uniform, so the engine does not check them.
    """

    learns = False

    def __init__(self, config: SimConfig) -> None:
        self.per_slot = config.random_per_slot
        self.held: np.ndarray | None = None
        self.work: _Work | None = None

    def play(self, model, p, u, rates, tiebreak, out) -> np.ndarray:
        """Act and contend for a chunk of k slots.

        p is the uniform [M, T, N], u the action uniforms [k, T, N], and
        rates and tiebreak are [k, T, M]. Writes the [k, T, N] payoffs to
        `out` and returns the 0-based channels chosen, [k, T, N].
        """
        if self.per_slot:
            if self.work is None or self.work.chosen.shape[1:] != u.shape:
                self.work = _Work(len(p), u.shape)
            chosen = _sample(np.broadcast_to(p[:, None], (len(p),) + u.shape), u, self.work)
            rates = np.broadcast_to(rates.transpose(2, 0, 1)[..., None], self.work.chosen.shape)
            _contend(model, self.work, rates, tiebreak.transpose(2, 0, 1)[..., None], out)
            return chosen.argmax(axis=0)
        if self.held is None:
            self._hold(p, u[0])
        # each user's channel's rate and tie-break, [k, T, N]
        got = rates[:, self.rows, self.held]
        if model is Contention.FAIR_SHARE:
            np.divide(got, self.count, out=out)
        else:
            # the winner's 0-based rank is floor(u * c), as in _contend
            tie = tiebreak[:, self.rows, self.held]
            tie *= self.count
            np.floor(tie, out=tie)
            np.multiply(got, tie == self.rank, out=out)
        return np.broadcast_to(self.held, u.shape)

    def _hold(self, p, u):
        """Draw the held profile at the first slot's uniforms u [T, N]; its
        takers per channel and each user's rank among them never change."""
        held = _sample(p, u, _Work(len(p), u.shape)).argmax(axis=0)
        same = held[..., :, None] == held[..., None, :]  # [T, N, N]: users on one channel
        self.count = same.sum(axis=-1, dtype=float)  # takers of each user's channel
        self.rank = np.tril(same, -1).sum(axis=-1, dtype=float)  # takers before it
        self.rows = np.arange(len(held))[:, None]
        self.held = held


POLICIES = {"learn": LearnPolicy, "sla": SLAPolicy, "random": RandomPolicy}


def _closed_form(game: GameSpec):
    """game.utility by (channel, takers, theta), memoized: the closed-form
    EC of a user with exponent theta on the 1-based channel when that many
    users take it."""

    @functools.cache
    def closed(channel: int, count: int, theta: float) -> float:
        law = shared_rate_distribution(game.channels[channel - 1], count, game.contention)
        return effective_capacity(law, theta)

    return closed


def _score(
    config: SimConfig,
    trial_index: int,
    profile: tuple[int, ...],
    conv_slot: int | None,
    payoff_log: np.ndarray,
    traces: TrialTraces | None,
    closed,
) -> TrialResult:
    """Score one trial from its [slots, N] payoffs.

    The empirical EC of every user is empirical_effective_capacity on the
    user's tail, all users at once: each user's series is one contiguous row,
    so its sum is the pairwise sum of a 1-D array, and the log is the same
    math.log. `closed(channel, count, theta)` is the closed-form EC of a user
    on a channel with that many takers, from `_closed_form`.
    """
    game = config.game
    if config.window is not None:
        burn_in = config.iterations - config.window
    elif conv_slot is not None:
        burn_in = min(conv_slot, config.iterations - 1)
    else:
        burn_in = config.iterations // 2
    tail = payoff_log[burn_in:]
    thetas = np.asarray(game.thetas)
    # log_sum_exp of -theta r per user, shifted by its max
    x = np.multiply(tail.T, -thetas[:, None], order="C")
    shift = x.max(axis=1)
    x -= shift[:, None]
    np.exp(x, out=x)
    logs = [math.log(total) for total in x.sum(axis=1).tolist()]
    ec_emp = tuple((-(shift + logs - math.log(len(tail))) / thetas).tolist())
    counts = congestion_counts(profile, game.n_channels)
    ec_closed = tuple(
        closed(a, counts[a - 1], theta) for a, theta in zip(profile, game.thetas)
    )
    return TrialResult(
        trial=trial_index,
        profile=profile,
        conv_slot=conv_slot,
        ec_closed=ec_closed,
        ec_empirical=ec_emp,
        traces=traces,
    )


def _run_block(config: SimConfig, trials: range, traced: bool = False) -> list[TrialResult]:
    """Run the given trials in lockstep and score each one, with its per-slot
    traces when `traced`."""
    game = config.game
    model = game.contention
    n, m, slots = game.n_users, game.n_channels, config.iterations
    size = len(trials)
    rngs = [trial_rng(config.base_seed, i) for i in trials]
    policy = POLICIES[config.algorithm](config)
    state = BlockState(p=np.full((m, size, n), 1.0 / m), q=np.zeros((m, size, n)))
    work = _Work(m, (size, n))
    sample_rates = RateSampler(game.channels)
    # per trial, the chunk's uniforms as one contiguous row
    draws = np.empty((size, CHUNK_SLOTS, n + 2 * m))
    # per-slot logs, slot-major, so one slot or one chunk writes as one row
    payoff_log = np.empty((slots, size, n))
    if traced:
        trace_p = np.empty((slots, size, n, m))
        trace_q = np.empty((slots, size, n, m))
        trace_a = np.empty((slots, size, n), dtype=int)
    conv = np.full(size, -1)  # -1: not converged yet
    top = np.empty((CHUNK_SLOTS, size, n))  # per slot: max_m p

    for start in range(0, slots, CHUNK_SLOTS):
        k = min(CHUNK_SLOTS, slots - start)
        for rng, row in zip(rngs, draws):
            rng.random(out=row[:k])
        # the rates are sampled in the draws' own [T, k] order, which is
        # faster; all three are then [k, T, ...] views
        rates = sample_rates(draws[:, :k, n : n + m]).swapaxes(0, 1)
        uniforms = draws[:, :k].swapaxes(0, 1)
        act_u, tiebreak = uniforms[..., :n], uniforms[..., n + m :]
        window = slice(start, start + k)
        payoffs_at = payoff_log[window]
        if traced:
            p_at, q_at, a_at = trace_p[window], trace_q[window], trace_a[window]
        if not policy.learns:
            actions = policy.play(model, state.p, act_u, rates, tiebreak, payoffs_at)
            if traced:
                p_at[:] = state.p.transpose(1, 2, 0)
                q_at[:] = state.q.transpose(1, 2, 0)
                a_at[:] = actions + 1  # 1-based channel ids
            continue
        # a learner steps slot by slot, since each slot's actions depend on
        # the last update; each slot's channel-major views are split off
        # once per chunk: rates [M, T, N] broadcast over users, tie-breaks
        # [M, T, 1]
        rates = rates.transpose(0, 2, 1)[..., None]
        slot_views = zip(
            act_u,
            np.broadcast_to(rates, rates.shape[:-1] + (n,)),
            tiebreak.transpose(0, 2, 1)[..., None],
            payoffs_at,
            top,
        )
        for s, (u, slot_rates, slot_ties, payoffs, best) in enumerate(slot_views):
            chosen = _sample(state.p, u, work)
            _contend(model, work, slot_rates, slot_ties, payoffs)
            policy.update(state, chosen, payoffs)
            state.slot += 1
            np.maximum.reduce(state.p, 0, None, best)
            if traced:
                p_at[s] = state.p.transpose(1, 2, 0)
                q_at[s] = state.q.transpose(1, 2, 0)
                chosen.argmax(axis=0, out=a_at[s])
        if traced:
            a_at += 1  # 1-based channel ids
        try:
            policy.check(state)
        except ValueError as err:
            raise ValueError(
                f"trials {trials[0]}..{trials[-1]} (base seed {config.base_seed}), "
                f"slot {start + k}: {err}"
            ) from err
        # every user concentrated: learning.is_converged
        hit = top[:k].min(axis=-1) >= 1.0 - config.epsilon
        fresh = (conv < 0) & hit.any(axis=0)
        conv[fresh] = start + hit.argmax(axis=0)[fresh] + 1

    finals = (state.p.argmax(axis=0) if policy.learns else actions[-1]) + 1
    closed = _closed_form(game)
    results = []
    for t, index in enumerate(trials):
        if policy.learns:
            conv_slot = int(conv[t]) if conv[t] > 0 else None
        else:
            conv_slot = None if config.random_per_slot else 0
        traces = None
        if traced:
            traces = TrialTraces(
                p=trace_p[:, t],
                q=trace_q[:, t],
                actions=trace_a[:, t],
                payoffs=payoff_log[:, t],
            )
        profile = tuple(int(a) for a in finals[t])
        results.append(
            _score(config, index, profile, conv_slot, payoff_log[:, t], traces, closed)
        )
    return results


def run_trial(config: SimConfig, trial_index: int) -> TrialResult:
    """One independent run of the configured algorithm, with its traces.

    Equal to the same trial inside run_experiment, which keeps no traces.
    """
    return _run_block(config, range(trial_index, trial_index + 1), True)[0]


@dataclass(frozen=True)
class ExperimentSummary:
    """Across-trial statistics plus the per-trial rows that produced them."""

    results: tuple[TrialResult, ...]
    mean_agg_closed: float
    std_agg_closed: float
    mean_agg_empirical: float
    std_agg_empirical: float
    convergence_rate: float  # NaN when the policy does not learn
    mean_conv_slot: float | None


def summarize(results, learns: bool) -> ExperimentSummary:
    """The statistics of trials run by a policy that learns or does not.

    Convergence counts only for a policy that learns: the held random
    baseline's conv_slot 0 marks its fixed profile, so without learning the
    convergence rate is NaN and there is no mean convergence slot.
    """
    rows = tuple(results)
    closed = np.array([r.agg_ec_closed for r in rows])
    emp = np.array([r.agg_ec_empirical for r in rows])
    conv = [r.conv_slot for r in rows if r.conv_slot is not None] if learns else []
    std = lambda a: float(a.std(ddof=1)) if len(a) > 1 else 0.0
    return ExperimentSummary(
        results=rows,
        mean_agg_closed=float(closed.mean()),
        std_agg_closed=std(closed),
        mean_agg_empirical=float(emp.mean()),
        std_agg_empirical=std(emp),
        convergence_rate=len(conv) / len(rows) if learns else math.nan,
        mean_conv_slot=float(np.mean(conv)) if conv else None,
    )


def run_experiment(config: SimConfig) -> ExperimentSummary:
    """All trials of one configuration, in trial-index order.

    Trials run untraced, in blocks of as many payoff logs as fit BLOCK_BYTES.
    """
    per_block = max(1, BLOCK_BYTES // (8 * config.game.n_users * config.iterations))
    results = []
    for first in range(0, config.trials, per_block):
        last = min(first + per_block, config.trials)
        results += _run_block(config, range(first, last))
    return summarize(results, POLICIES[config.algorithm].learns)


SWEEP_VARIABLES = ("users", "theta", "eta")


@dataclass(frozen=True)
class SweepPoint:
    variable: str
    value: float
    summary: ExperimentSummary


def _with_value(config: SimConfig, variable: str, value) -> SimConfig:
    game = config.game
    if variable == "eta":
        return replace(config, eta=float(value))
    if variable == "theta":
        thetas = (float(value),) * game.n_users
        return replace(config, game=replace(game, thetas=thetas))
    # users: grow or shrink the population, keeping the common exponent
    theta = game.homogeneous_theta()
    if theta is None:
        raise ValueError("a user sweep needs a common QoS exponent to replicate")
    if not (float(value).is_integer() and value >= 1):
        raise ValueError("user counts must be whole numbers >= 1")
    return replace(config, game=replace(game, thetas=(theta,) * int(value)))


def sweep_configs(config: SimConfig, variable: str, values) -> tuple[SimConfig, ...]:
    """The config of every sweep point, each built and so checked.

    Raises ValueError, naming the point, on the first bad value; sweep
    calls this before the first point runs.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(
            f"sweep variable must be one of {SWEEP_VARIABLES}, got {variable!r}"
        )
    configs = []
    for value in values:
        try:
            configs.append(_with_value(config, variable, value))
        except ValueError as err:
            raise ValueError(f"sweep {variable} = {value!r}: {err}") from err
    return tuple(configs)


def sweep(config: SimConfig, variable: str, values) -> tuple[SweepPoint, ...]:
    """One experiment per value of the swept variable."""
    values = tuple(values)
    configs = sweep_configs(config, variable, values)
    return tuple(
        SweepPoint(variable, float(value), run_experiment(point))
        for value, point in zip(values, configs)
    )
