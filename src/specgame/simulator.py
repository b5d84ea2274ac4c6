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
is bound once per block: sampling, contention and the update are closures
over their buffers (`_Work` and the policy's), ufuncs and constants, and
each slot's operands are views made once, so a step makes no array and no
view. Its ufuncs take same-shape, same-dtype operands, numpy's fast path
at these sizes, for the same bits (README, "Simulation engine and
determinism"). After each update p is copied into a per-chunk history (q
and the one-hot too, when traced), off which the traces and the
convergence test are read once per chunk.
The random baseline (`learns` false) never reads payoffs, so its `play`
draws a chunk's actions at once, or holds the first slot's, and gathers
each user's rate and tie-break at its channel.

A finished block's closed-form EC is one gather from the game's count
tables (`profile_utilities`), and `_score` reads each trial's empirical EC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy import add, copyto, divide, exp, expm1, greater, maximum, minimum, multiply, subtract

from specgame.channels import RateSampler
from specgame.game import Contention, GameSpec, congestion_counts, profile_utilities
from specgame.learning import Q_BOUND_SLACK, StepSchedule, check_estimates, check_simplex_rows

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
    """The preallocated buffers of a learner's slot step, and fixed views of them.

    `shape` is the shape of the action uniforms the step reads, [T, N] for
    a block of trials. Every buffer is channel-major, [M, *shape], or
    [M, *shape[:-1], 1] for one value per channel. A sampler writes the
    one-hot `chosen` and its float copy `hot`; a contender reads both, and
    the update reads `hot`.
    """

    def __init__(self, m: int, shape: tuple[int, ...]) -> None:
        full, per_channel = (m,) + shape, (m,) + shape[:-1] + (1,)
        self.cum = np.empty((m - 1,) + shape)  # running sums of p
        # whether a running sum is above u; row 0 is the empty sum
        above = np.zeros((m + 1,) + shape, dtype=bool)
        above[-1] = True
        self.above_sums, self.above_hi, self.above_lo = above[1:-1], above[1:], above[:-1]
        self.chosen = np.empty(full, dtype=bool)
        self.hot = np.empty(full)
        self.taken = np.empty(full)  # takers so far in user order
        self.counts = self.taken[..., -1:]
        self.draw = np.empty(per_channel)  # slot winner: u * c
        # whether the takers so far are more than u * c; column 0 is no user
        past = np.zeros((m,) + shape[:-1] + (shape[-1] + 1,), dtype=bool)
        self.past, self.past_before = past[..., 1:], past[..., :-1]
        self.paid = np.empty(full, dtype=bool)
        self.share = np.empty(per_channel)  # fair share: each taker's rate
        self.shares = np.broadcast_to(self.share, full)


def _sampler(p: np.ndarray, work: _Work):
    """`sample(u)`: a learner's inverse-CDF draws from its channel-major
    strategies p [M, ...] at uniforms u [M - 1, ...], written as the
    channel-major one-hot `work.chosen` and its copy `work.hot`. It reads
    p's buffer, so p is updated in place.

    The arithmetic of learning.sample_profile: running sums in channel
    order, the last one taken as 1, and the first sum above u
    (bisect_right). Running sums never fall, so a channel is drawn where
    its sum is above u and the sum before it is not.
    """
    accumulate, head, cum, above = add.accumulate, p[:-1], work.cum, work.above_sums
    hi, lo, chosen, hot = work.above_hi, work.above_lo, work.chosen, work.hot

    def sample(u):
        accumulate(head, 0, None, cum)
        greater(cum, u, above)
        greater(hi, lo, chosen)
        copyto(hot, chosen)

    return sample


def _contender(model: Contention, work: _Work):
    """`contend(rates, tiebreak, out)`: resolve_contention for a block of
    trials, over any leading shape.

    Reads the channel-major one-hot [M, ..., N] of the users' actions from
    `work`. rates are channel-major, [M, ..., N], one value per channel
    repeated over users, and tiebreak is [M, ..., 1]. Writes the [..., N]
    payoffs to `out`: per user, the sum over channels of what it gets on
    each. It gets something on one channel at most, so the sum adds one
    value to the reduction's zero, which is exact.
    """
    accumulate, total, hot, taken = add.accumulate, add.reduce, work.hot, work.taken
    counts, chosen, share, shares = work.counts, work.chosen, work.share, work.shares
    draw, past, past_before, paid = work.draw, work.past, work.past_before, work.paid

    def fair_share(rates, tiebreak, out):
        accumulate(hot, -1, None, taken)
        # an empty channel divides by 1 instead of 0; no user reads it, and
        # fair share reads nothing else of `taken`
        maximum(counts, 1, out=counts)
        divide(rates[..., :1], counts, share)
        total(shares, 0, None, out, where=chosen)

    # The winner's 1-based rank among the channel's c takers is
    # floor(u * c) + 1: the first taker whose count so far is above u * c.
    # Counts only grow, and only at takers, so it is where the count is
    # above u * c and the count before it is not.
    def slot_winner(rates, tiebreak, out):
        accumulate(hot, -1, None, taken)
        multiply(tiebreak, counts, draw)
        greater(taken, draw, past)
        greater(past, past_before, paid)
        total(rates, 0, None, out, where=paid)

    return fair_share if model is Contention.FAIR_SHARE else slot_winner


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


class Policy:
    """How one algorithm learns from a block of trials; one instance serves
    one block.

    A policy that learns (`learns` true) acts by a sampler on its
    strategies, and `bind(state, chosen)` returns its slot update
    `update(payoffs, lam)`: from the [T, N] payoffs, the slot's estimate
    gain (a 0-d array) and the channel-major float one-hot `chosen`
    [M, T, N], it updates `state` in place. It works on whole [T, N] slabs:
    per-user values broadcast over the leading channel axis, and sums over
    channels add the slabs in channel order, the order of numpy's row sum
    up to seven channels. The engine checks its state once per chunk.
    """

    learns = True  # whether it updates on payoffs; the convergence slot is read off p

    def check(self, state: BlockState) -> None:
        check_simplex_rows(state.p, axis=0)


class LearnPolicy(Policy):
    """Estimate tracking plus multiplicative reweighting: the block form of
    learning.update_estimates followed by update_probabilities."""

    def __init__(self, config: SimConfig) -> None:
        self.log_gain = np.asarray(math.log1p(config.eta))
        self.thetas = np.asarray(config.game.thetas, dtype=float)
        self.limits = 1.0 / self.thetas + Q_BOUND_SLACK  # users on the last axis

    def bind(self, state, chosen):
        p, q, log_gain, top, total = state.p, state.q, self.log_gain, maximum.reduce, add.reduce
        w, row = np.empty_like(p), np.empty(p.shape[1:])
        neg_thetas = np.broadcast_to(-self.thetas, row.shape).copy()

        def update(payoffs, lam):
            # payoff_transform, less its per-call check of the exponents
            multiply(neg_thetas, payoffs, row)
            expm1(row, row)
            divide(row, neg_thetas, row)
            # the chosen estimates move by lambda towards it (q + 0 * step is q)
            subtract(row, q, w)
            multiply(w, lam, w)
            multiply(w, chosen, w)
            add(w, q, q)
            multiply(q, log_gain, w)
            top(w, 0, None, row)
            subtract(w, row, w)
            exp(w, w)
            multiply(w, p, w)
            total(w, 0, None, row)
            divide(w, row, p)

        return update

    def check(self, state):
        super().check(state)
        check_estimates(state.q, self.limits)


class SLAPolicy(Policy):
    """Linear reward-inaction: the block form of learning.sla_update (lam unused)."""

    def __init__(self, config: SimConfig) -> None:
        self.b, self.r_max = np.asarray(config.sla_gain), np.asarray(config.rate_cap())

    def bind(self, state, chosen):
        p, b, r_max, one, total = state.p, self.b, self.r_max, np.asarray(1.0), add.reduce
        w, row = np.empty_like(p), np.empty(p.shape[1:])

        def update(payoffs, lam):
            # payoffs are >= 0, so only the upper clip of sla_update can act
            divide(payoffs, r_max, row)
            minimum(row, one, out=row)
            multiply(row, b, row)
            subtract(chosen, p, w)
            multiply(w, row, w)
            add(w, p, w)
            total(w, 0, None, row)
            divide(w, row, p)

        return update


class RandomPolicy(Policy):
    """Uniform choices: one profile held from the first slot, or a fresh
    one every slot. Draws like learning.random_baseline_profile: the first
    running sum of the uniform strategy above u (bisect_right).

    It never reads payoffs, so the engine runs it a chunk at a time through
    `play`. Its strategies stay uniform, so the engine does not check them.
    """

    learns = False

    def __init__(self, config: SimConfig) -> None:
        self.per_slot = config.random_per_slot
        m = config.game.n_channels
        self.sums = add.accumulate(np.full(m - 1, 1.0 / m))  # the last, 1, left out
        self.actions: np.ndarray | None = None

    def play(self, model, u, rates, tiebreak, out) -> np.ndarray:
        """Act and contend for a chunk of k slots.

        u is the action uniforms [k, T, N], and rates and tiebreak are
        [k, T, M]. Writes the [k, T, N] payoffs to `out` and returns the
        0-based channels chosen, [k, T, N].
        """
        k, trials, n = u.shape
        if self.actions is None:  # the first chunk is the longest
            # each slot and trial's start in the flat [k, T, M] chunk
            self.offsets = (np.arange(k * trials) * rates.shape[-1]).reshape(k, trials, 1)
        if self.per_slot or self.actions is None:
            self.actions = self.sums.searchsorted(u if self.per_slot else u[0], "right")
            # whether users i and j share a channel, user-major, [N, N, rows],
            # so that sums over users add whole rows
            by_user = self.actions.reshape(-1, n).T.copy()
            same = by_user[:, None] == by_user
            before = np.tri(n, k=-1, dtype=bool)[..., None]  # j < i
            # takers of each user's channel, and those of them before it
            self.count = add.reduce(same, 1, dtype=float).T.reshape(self.actions.shape)
            self.rank = add.reduce(same, 1, dtype=float, where=before).T.reshape(self.count.shape)
        at = self.actions + self.offsets[:k]  # each user's channel, flat
        got = rates.take(at)
        if model is Contention.FAIR_SHARE:
            np.divide(got, self.count, out=out)
        else:
            # the winner's 0-based rank among the channel's c takers is floor(u * c)
            tie = tiebreak.take(at)
            tie *= self.count
            np.floor(tie, out=tie)
            np.multiply(got, tie == self.rank, out=out)
        return np.broadcast_to(self.actions, u.shape)


POLICIES = {"learn": LearnPolicy, "sla": SLAPolicy, "random": RandomPolicy}


def _score(
    config: SimConfig, conv_slot: int | None, payoff_log: np.ndarray
) -> tuple[float, ...]:
    """The empirical EC of every user over one trial's [slots, N] payoffs.

    Each user's value is empirical_effective_capacity on the user's tail, all
    users at once: each user's series is one contiguous row, so its sum is
    the pairwise sum of a 1-D array, and the log is the same math.log.
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
    return tuple(((math.log(len(tail)) - (shift + logs)) / thetas).tolist())


def _run_block(config: SimConfig, trials: range, traced: bool = False) -> list[TrialResult]:
    """Run the given trials in lockstep and score each one, with its per-slot
    traces when `traced`."""
    game = config.game
    model = game.contention
    n, m, slots, size = game.n_users, game.n_channels, config.iterations, len(trials)
    rngs = [trial_rng(config.base_seed, i) for i in trials]
    policy = POLICIES[config.algorithm](config)
    state = BlockState(p=np.full((m, size, n), 1.0 / m), q=np.zeros((m, size, n)))
    sample_rates = RateSampler(game.channels)
    # per trial, the chunk's uniforms as one contiguous row
    draws = np.empty((size, CHUNK_SLOTS, n + 2 * m))
    # per-slot logs, slot-major, so one slot or one chunk writes as one row
    payoff_log = np.empty((slots, size, n))
    if traced:
        # what a policy does not change (the random baseline's p and q) stays
        trace_p, trace_q = np.full((slots, size, n, m), 1.0 / m), np.zeros((slots, size, n, m))
        trace_a = np.empty((slots, size, n), dtype=int)
    conv = np.full(size, -1)  # -1: not converged yet
    if policy.learns:
        # the slot step, bound once, and each slot's operands and rows in a chunk
        work = _Work(m, (size, n))
        sample, contend = _sampler(state.p, work), _contender(model, work)
        update, p, q, hot = policy.bind(state, work.hot), state.p, state.q, work.hot
        schedule = StepSchedule(eta=config.eta, lam=config.lam)
        slot_u = np.empty((CHUNK_SLOTS, m - 1, size, n))
        slot_rates, history = np.empty((2, CHUNK_SLOTS, m, size, n))
        ties = draws[..., n + m :].transpose(1, 2, 0)[..., None]
        gains, slot_pay = np.empty(CHUNK_SLOTS), np.empty((CHUNK_SLOTS, size, n))
        lams = [gains[s, ...] for s in range(CHUNK_SLOTS)]  # 0-d views
        steps = list(zip(slot_u, slot_rates, ties, lams, slot_pay, history))
        if traced:
            q_rows, hot_rows = np.empty((2,) + history.shape)

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
        if traced:
            p_at, q_at, a_at = trace_p[window], trace_q[window], trace_a[window]
        if not policy.learns:
            actions = policy.play(model, act_u, rates, tiebreak, payoff_log[window])
            if traced:
                a_at[:] = actions + 1  # 1-based channel ids
            continue
        # a learner steps slot by slot, since each slot's actions depend on
        # the last update
        np.copyto(slot_u[:k], act_u[:, None])
        np.copyto(slot_rates[:k], rates.transpose(0, 2, 1)[..., None])
        gains[:k] = schedule.lambda_at(np.arange(start, start + k))
        for s, (u, rates_now, ties_now, lam, payoffs, p_now) in enumerate(steps[:k]):
            sample(u)
            contend(rates_now, ties_now, payoffs)
            update(payoffs, lam)
            copyto(p_now, p)
            if traced:
                copyto(q_rows[s], q)
                copyto(hot_rows[s], hot)
        payoff_log[window] = slot_pay[:k]
        chunk_p = history[:k]
        if traced:
            p_at[:] = chunk_p.transpose(0, 2, 3, 1)
            q_at[:] = q_rows[:k].transpose(0, 2, 3, 1)
            a_at[:] = hot_rows[:k].argmax(axis=1) + 1  # 1-based channel ids
        try:
            policy.check(state)
        except ValueError as err:
            raise ValueError(
                f"trials {trials[0]}..{trials[-1]} (base seed {config.base_seed}), "
                f"slot {start + k}: {err}"
            ) from err
        if (conv < 0).any():  # else every trial has its convergence slot
            # every user concentrated: learning.is_converged, on each slot's p
            hit = minimum.reduce(maximum.reduce(chunk_p, 1), -1) >= 1.0 - config.epsilon
            fresh = (conv < 0) & np.logical_or.reduce(hit, 0)
            conv[fresh] = start + hit.argmax(axis=0)[fresh] + 1

    finals = (state.p.argmax(axis=0) if policy.learns else actions[-1]) + 1
    closed = profile_utilities(game, finals).tolist()
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
        profile, ec_emp = tuple(finals[t].tolist()), _score(config, conv_slot, payoff_log[:, t])
        results.append(TrialResult(index, profile, conv_slot, tuple(closed[t]), ec_emp, traces))
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
