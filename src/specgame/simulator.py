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
slot, since each slot's actions depend on the last update. One that does
not learn (`learns` false, the random baseline) never reads payoffs, so it
acts, contends and logs the whole chunk as [k, T, N] arrays; its `act` then
receives [k, T, N] uniforms and returns the one-hot [M, k, T, N].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from specgame.capacity import empirical_effective_capacity
from specgame.channels import RateSampler
from specgame.game import Contention, GameSpec, congestion_counts, utility
from specgame.learning import StepSchedule, check_estimates, check_simplex_rows

AGGREGATE_TOL = 1e-9

# Byte budget of the per-slot logs of one block of trials: payoffs, plus
# traces when collected. Larger experiments run as several blocks.
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
    collect_traces: bool = False

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
        # surface bad step parameters at config time, not mid-trial
        StepSchedule(eta=self.eta, lam=self.lam)

    def rate_cap(self) -> float:
        if self.sla_rate_cap is not None:
            return self.sla_rate_cap
        return max(spec.rates[-1] for spec in self.game.channels)


@dataclass(frozen=True, eq=False)
class TrialTraces:
    """Per-slot state of one trial; slot t holds the post-update values.

    Compares by identity: the arrays are bulk telemetry, and element-wise
    comparison inside TrialResult equality would be both slow and ambiguous.
    """

    p: np.ndarray  # [iterations, N, M]
    q: np.ndarray  # [iterations, N, M], zero for algorithms without estimates
    actions: np.ndarray  # [iterations, N], 1-based channel ids
    payoffs: np.ndarray  # [iterations, N]


@dataclass(frozen=True)
class TrialResult:
    trial: int
    profile: tuple[int, ...]
    conv_slot: int | None
    ec_closed: tuple[float, ...]
    ec_empirical: tuple[float, ...]
    agg_ec_closed: float
    agg_ec_empirical: float
    traces: TrialTraces | None = None

    def __post_init__(self) -> None:
        gap = abs(self.agg_ec_closed - sum(self.ec_closed))
        if not gap <= AGGREGATE_TOL:
            raise ValueError(
                f"trial {self.trial}: aggregate {self.agg_ec_closed!r} is off "
                f"the sum of its users by {gap:.3e}"
            )


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


def _contend(model: Contention, chosen, rates, tiebreak) -> np.ndarray:
    """resolve_contention for a block of trials, over any leading shape.

    chosen is the channel-major one-hot [M, ..., N] of the users' actions,
    and rates and tiebreak are channel-major too, [M, ...]. Returns the
    [..., N] payoffs: per user, the sum over channels of what it gets on
    each. It gets something on one channel at most, so the sum adds exact
    zeros to one value, which is exact in any order.
    """
    # [M, ..., N]: takers so far in user order, in the smallest integer type
    # that holds N, which keeps chunk-sized temporaries small
    dtype = np.min_scalar_type(chosen.shape[-1])
    taken = np.add.accumulate(chosen.view(np.uint8), axis=-1, dtype=dtype)
    counts = taken[..., -1]  # [M, ...]
    if model is Contention.FAIR_SHARE:
        # an empty channel divides by 1 instead of 0; no user reads it
        paid, value = chosen, rates / np.maximum(counts, 1)
    else:
        # a taker wins when its rank among the channel's takers is floor(u * c)
        winner = np.floor(tiebreak * counts)
        winner += 1  # as a 1-based rank
        paid = taken == winner[..., None]
        paid &= chosen
        value = rates
    return np.einsum("m...n,m...->...n", paid, value)


def _sample(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from the channel-major strategies p [M, ...] at
    uniforms u [...], as their channel-major one-hot [M, ...].

    The arithmetic of learning.sample_profile: running sums in channel
    order, the last one taken as 1, and the first sum above u
    (bisect_right). Running sums never fall, so a channel is drawn where
    its sum is above u and the sum before it is not.
    """
    above = np.zeros((len(p) + 1,) + u.shape, dtype=bool)  # row 0: the empty sum
    above[-1] = True
    np.greater(np.add.accumulate(p[:-1], axis=0), u, out=above[1:-1])
    return above[1:] > above[:-1]


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
    """How one algorithm acts on and learns from a block of trials.

    `act(p, u)` maps the channel-major strategies [M, T, N] and the N action
    uniforms of each trial, [T, N], to the channel-major one-hot [M, T, N]
    of the chosen channels. `update(state, chosen, payoffs)` takes that
    one-hot and the [T, N] payoffs, and works on whole [T, N] slabs:
    per-user values broadcast over the leading channel axis, and sums over
    channels add the slabs in channel order, the order of numpy's row sum
    up to seven channels. One instance serves one block.

    A policy that does not learn never reads payoffs, so the engine runs it
    a chunk at a time: `act` then receives [k, T, N] uniforms for k slots
    and returns the one-hot [M, k, T, N], and `update` is never called.
    """

    learns = True  # whether it updates on payoffs; the convergence slot is read off p

    def act(self, p: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _sample(p, u)

    def update(self, state: BlockState, chosen: np.ndarray, payoffs: np.ndarray) -> None:
        pass

    def check(self, state: BlockState) -> None:
        check_simplex_rows(np.moveaxis(state.p, 0, -1))

    def final_profile(self, state: BlockState, chosen: np.ndarray) -> np.ndarray:
        """The 0-based profile a trial ends on, [T, N], given what the last
        call to `act` returned."""
        return state.p.argmax(axis=0)


class LearnPolicy(Policy):
    """Estimate tracking plus multiplicative reweighting: the block form of
    learning.update_estimates followed by update_probabilities."""

    def __init__(self, config: SimConfig) -> None:
        self.schedule = StepSchedule(eta=config.eta, lam=config.lam)
        self.log_gain = math.log1p(config.eta)
        self.thetas = np.asarray(config.game.thetas, dtype=float)
        self.neg_thetas = -self.thetas

    def update(self, state, chosen, payoffs):
        lam = self.schedule.lambda_at(state.slot)
        # payoff_transform, less its per-call check of the exponents
        target = np.expm1(self.neg_thetas * payoffs) / self.neg_thetas
        q = state.q
        moved = target - q
        moved *= lam
        moved += q
        np.copyto(q, moved, where=chosen)
        w = q * self.log_gain
        w -= w.max(axis=0)
        np.exp(w, out=w)
        w *= state.p
        np.divide(w, w.sum(axis=0), out=state.p)

    def check(self, state):
        super().check(state)
        check_estimates(np.moveaxis(state.q, 0, -1), self.thetas)


class SLAPolicy(Policy):
    """Linear reward-inaction: the block form of learning.sla_update."""

    def __init__(self, config: SimConfig) -> None:
        self.b = config.sla_gain
        self.r_max = config.rate_cap()

    def update(self, state, chosen, payoffs):
        # payoffs are >= 0, so only the upper clip of sla_update can act
        rhat = np.minimum(payoffs / self.r_max, 1.0)
        p = chosen - state.p
        p *= self.b * rhat
        p += state.p
        np.divide(p, p.sum(axis=0), out=state.p)


class RandomPolicy(Policy):
    """Uniform choices: one profile held from the first slot, or a fresh
    one every slot. Draws like learning.random_baseline_profile."""

    learns = False

    def __init__(self, config: SimConfig) -> None:
        self.per_slot = config.random_per_slot
        self.held: np.ndarray | None = None

    def act(self, p, u):
        # u is [k, T, N]: k slots of action uniforms
        if self.per_slot:
            return _sample(p[:, None], u)
        if self.held is None:
            self.held = _sample(p, u[0])[:, None]
        return np.broadcast_to(self.held, (len(p),) + u.shape)

    def final_profile(self, state, chosen):
        return chosen[:, -1].argmax(axis=0)  # the last chunk's last slot


POLICIES = {"learn": LearnPolicy, "sla": SLAPolicy, "random": RandomPolicy}


def _score(
    config: SimConfig,
    trial_index: int,
    profile: tuple[int, ...],
    conv_slot: int | None,
    payoff_log: np.ndarray,
    traces: TrialTraces | None,
) -> TrialResult:
    game = config.game
    if config.window is not None:
        burn_in = config.iterations - config.window
    elif conv_slot is not None:
        burn_in = min(conv_slot, config.iterations - 1)
    else:
        burn_in = config.iterations // 2
    tail = payoff_log[burn_in:]
    ec_emp = tuple(
        empirical_effective_capacity(tail[:, u], game.thetas[u])
        for u in range(game.n_users)
    )
    ec_closed = tuple(utility(game, profile, u) for u in range(game.n_users))
    return TrialResult(
        trial=trial_index,
        profile=profile,
        conv_slot=conv_slot,
        ec_closed=ec_closed,
        ec_empirical=ec_emp,
        agg_ec_closed=float(sum(ec_closed)),
        agg_ec_empirical=float(sum(ec_emp)),
        traces=traces,
    )


def _trial_bytes(config: SimConfig) -> int:
    """Bytes of per-slot logs one trial holds in its block."""
    n, m = config.game.n_users, config.game.n_channels
    per_slot = n  # payoffs
    if config.collect_traces:
        per_slot += 2 * n * m + n  # p, q and actions
    return 8 * per_slot * config.iterations


def _run_block(config: SimConfig, trials: range) -> list[TrialResult]:
    """Run the given trials in lockstep and score each one."""
    game = config.game
    n, m, slots = game.n_users, game.n_channels, config.iterations
    size = len(trials)
    rngs = [trial_rng(config.base_seed, i) for i in trials]
    policy = POLICIES[config.algorithm](config)
    state = BlockState(p=np.full((m, size, n), 1.0 / m), q=np.zeros((m, size, n)))
    sample_rates = RateSampler(game.channels)
    # per-slot logs, slot-major, so one slot or one chunk writes as one row
    payoff_log = np.empty((slots, size, n))
    if config.collect_traces:
        trace_p = np.empty((slots, size, n, m))
        trace_q = np.empty((slots, size, n, m))
        trace_a = np.empty((slots, size, n), dtype=int)
    conv = np.full(size, -1)  # -1: not converged yet
    top = np.empty((CHUNK_SLOTS, size, n))  # per slot: max_m p

    for start in range(0, slots, CHUNK_SLOTS):
        k = min(CHUNK_SLOTS, slots - start)
        uniforms = np.stack([rng.random((k, n + 2 * m)) for rng in rngs], axis=1)
        act_u = uniforms[..., :n]
        # channel-major views, [M, k, T]
        tiebreak = uniforms[..., n + m :].transpose(2, 0, 1)
        rates = sample_rates(uniforms[..., n : n + m]).transpose(2, 0, 1)
        window = slice(start, start + k)
        payoffs_at = payoff_log[window]
        if config.collect_traces:
            p_at, q_at, a_at = trace_p[window], trace_q[window], trace_a[window]
        # a learner steps slot by slot, since each slot's actions depend on
        # the last update; a policy that does not learn takes the whole chunk
        for s in range(k) if policy.learns else (slice(0, k),):
            chosen = policy.act(state.p, act_u[s])
            payoffs = _contend(game.contention, chosen, rates[:, s], tiebreak[:, s])
            if policy.learns:
                policy.update(state, chosen, payoffs)
                state.slot += 1
                state.p.max(axis=0, out=top[s])
            payoffs_at[s] = payoffs
            if config.collect_traces:
                p_at[s] = state.p.transpose(1, 2, 0)
                q_at[s] = state.q.transpose(1, 2, 0)
                chosen.argmax(axis=0, out=a_at[s])
        if config.collect_traces:
            a_at += 1  # 1-based channel ids
        try:
            policy.check(state)
        except ValueError as err:
            raise ValueError(
                f"trials {trials[0]}..{trials[-1]} (base seed {config.base_seed}), "
                f"slot {start + k}: {err}"
            ) from err
        if policy.learns:
            # every user concentrated: learning.is_converged
            hit = top[:k].min(axis=-1) >= 1.0 - config.epsilon
            fresh = (conv < 0) & hit.any(axis=0)
            conv[fresh] = start + hit.argmax(axis=0)[fresh] + 1

    finals = policy.final_profile(state, chosen) + 1
    results = []
    for t, index in enumerate(trials):
        if policy.learns:
            conv_slot = int(conv[t]) if conv[t] > 0 else None
        else:
            conv_slot = None if config.random_per_slot else 0
        traces = None
        if config.collect_traces:
            traces = TrialTraces(
                p=trace_p[:, t],
                q=trace_q[:, t],
                actions=trace_a[:, t],
                payoffs=payoff_log[:, t],
            )
        profile = tuple(int(a) for a in finals[t])
        results.append(
            _score(config, index, profile, conv_slot, payoff_log[:, t], traces)
        )
    return results


def run_trial(config: SimConfig, trial_index: int) -> TrialResult:
    """One independent run of the configured algorithm.

    Equal to the same trial inside run_experiment; traced when
    config.collect_traces is set.
    """
    return _run_block(config, range(trial_index, trial_index + 1))[0]


@dataclass(frozen=True)
class ExperimentSummary:
    """Across-trial statistics plus the per-trial rows that produced them."""

    results: tuple[TrialResult, ...]
    mean_agg_closed: float
    std_agg_closed: float
    mean_agg_empirical: float
    std_agg_empirical: float
    convergence_rate: float
    mean_conv_slot: float | None


def summarize(results) -> ExperimentSummary:
    rows = tuple(results)
    closed = np.array([r.agg_ec_closed for r in rows])
    emp = np.array([r.agg_ec_empirical for r in rows])
    conv = [r.conv_slot for r in rows if r.conv_slot is not None]
    std = lambda a: float(a.std(ddof=1)) if len(a) > 1 else 0.0
    return ExperimentSummary(
        results=rows,
        mean_agg_closed=float(closed.mean()),
        std_agg_closed=std(closed),
        mean_agg_empirical=float(emp.mean()),
        std_agg_empirical=std(emp),
        convergence_rate=len(conv) / len(rows),
        mean_conv_slot=float(np.mean(conv)) if conv else None,
    )


def run_experiment(config: SimConfig) -> ExperimentSummary:
    """All trials of one configuration, in trial-index order.

    Trials run in blocks of as many as fit BLOCK_BYTES.
    """
    per_block = max(1, BLOCK_BYTES // _trial_bytes(config))
    results = []
    for first in range(0, config.trials, per_block):
        last = min(first + per_block, config.trials)
        results += _run_block(config, range(first, last))
    return summarize(results)


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
