"""Slot-level Monte Carlo engine.

Each trial runs the sense-transmit-update loop: users pick channels from
their strategies, channel states are drawn, contention splits the realized
rates, the algorithm updates on the payoffs, and the run is scored. One
lockstep engine runs every algorithm. `learn`, `sla` and `random` are small
policies, and a block of trials advances together as [T, N, M] arrays.

Every trial draws from its own generator (`trial_rng`), and every slot
consumes exactly N + 2M uniforms in a fixed layout: N for the actions in
user order, M for the channel states and M for collision tie-breaks, both
in channel order. What a trial consumes therefore never depends on
collisions or on the trials beside it, so trial i's result is the same
whatever the trial count, block size or chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from specgame.capacity import empirical_effective_capacity
from specgame.channels import RateSampler
from specgame.game import Contention, GameSpec, congestion_counts, utility
from specgame.learning import StepSchedule, check_estimates, check_simplex_rows

ALGORITHMS = ("learn", "sla", "random")

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
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        if self.window is not None and not 1 <= self.window <= self.iterations:
            raise ValueError(
                f"window must be in 1..iterations, got {self.window!r}"
            )
        if not 0.0 < self.sla_gain < 1.0:
            raise ValueError(f"sla_gain must be in (0, 1), got {self.sla_gain!r}")
        if self.sla_rate_cap is not None and not self.sla_rate_cap > 0.0:
            raise ValueError(f"sla_rate_cap must be > 0, got {self.sla_rate_cap!r}")
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


def _contend(model: Contention, actions, chosen, rates, tiebreak) -> np.ndarray:
    """resolve_contention for a block of trials.

    actions are the [T, N] 0-based channels and chosen their [T, N, M]
    one-hot; rates and tiebreak are [T, M]. Returns the [T, N] payoffs.
    """
    rows = np.arange(actions.shape[0])[:, None]
    counts = chosen.sum(axis=1)  # [T, M]
    got = rates[rows, actions]
    if model is Contention.FAIR_SHARE:
        return got / counts[rows, actions]
    # a taker wins when its rank among the channel's takers is floor(u * c)
    rank = chosen.cumsum(axis=1)[rows, np.arange(actions.shape[1]), actions] - 1
    winner = np.floor(tiebreak * counts)[rows, actions]
    return np.where(rank == winner, got, 0.0)


def _sample(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """0-based inverse-CDF draws from the rows of p [..., M] at uniforms u.

    The arithmetic of learning.sample_profile: running sums with the last
    one forced to 1, and the first sum above u (bisect_right).
    """
    cum = p.cumsum(axis=-1)
    cum[..., -1] = 1.0
    return (cum > u[..., None]).argmax(axis=-1)


@dataclass
class BlockState:
    """The strategies and estimates of a block of trials, updated in place."""

    p: np.ndarray  # [T, N, M]
    q: np.ndarray  # [T, N, M], zero for policies without estimates
    slot: int = 0  # slots completed


class Policy:
    """How one algorithm acts on and learns from a block of trials.

    `act(p, u)` maps the strategies and the N action uniforms of each trial
    to 0-based channel indices [T, N]. `update(state, chosen, payoffs)`
    takes the one-hot [T, N, M] of those actions and the [T, N] payoffs.
    One instance serves one block.
    """

    converges = True  # whether the convergence slot is read off p

    def act(self, p: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _sample(p, u)

    def update(self, state: BlockState, chosen: np.ndarray, payoffs: np.ndarray) -> None:
        pass

    def check(self, state: BlockState) -> None:
        check_simplex_rows(state.p)

    def final_profile(self, state: BlockState, actions: np.ndarray) -> np.ndarray:
        """The 0-based profile a trial ends on, [T, N]."""
        return state.p.argmax(axis=-1)


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
        target = (-np.expm1(self.neg_thetas * payoffs) / self.thetas)[..., None]
        q = np.where(chosen, state.q + lam * (target - state.q), state.q)
        log_gain = q * self.log_gain
        w = state.p * np.exp(log_gain - log_gain.max(axis=-1, keepdims=True))
        state.p = w / w.sum(axis=-1, keepdims=True)
        state.q = q

    def check(self, state):
        check_simplex_rows(state.p)
        check_estimates(state.q, self.thetas)


class SLAPolicy(Policy):
    """Linear reward-inaction: the block form of learning.sla_update."""

    def __init__(self, config: SimConfig) -> None:
        self.b = config.sla_gain
        self.r_max = config.rate_cap()

    def update(self, state, chosen, payoffs):
        rhat = np.clip(payoffs / self.r_max, 0.0, 1.0)
        p = state.p + self.b * rhat[..., None] * (chosen - state.p)
        state.p = p / p.sum(axis=-1, keepdims=True)


class RandomPolicy(Policy):
    """Uniform choices: one profile held from the first slot, or a fresh
    one every slot. Draws like learning.random_baseline_profile."""

    converges = False

    def __init__(self, config: SimConfig) -> None:
        self.per_slot = config.random_per_slot
        self.held: np.ndarray | None = None

    def act(self, p, u):
        if self.per_slot or self.held is None:
            self.held = _sample(p, u)
        return self.held

    def final_profile(self, state, actions):
        return actions


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
    state = BlockState(p=np.full((size, n, m), 1.0 / m), q=np.zeros((size, n, m)))
    sample_rates = RateSampler(game.channels)
    channel_ids = np.arange(m)
    payoff_log = np.empty((size, slots, n))
    if config.collect_traces:
        trace_p = np.empty((size, slots, n, m))
        trace_q = np.empty((size, slots, n, m))
        trace_a = np.empty((size, slots, n), dtype=int)
    conv = np.full(size, -1)  # -1: not converged yet
    top = np.empty((CHUNK_SLOTS, size, n))  # per slot: max_m p

    for start in range(0, slots, CHUNK_SLOTS):
        k = min(CHUNK_SLOTS, slots - start)
        uniforms = np.stack([rng.random((k, n + 2 * m)) for rng in rngs], axis=1)
        for s in range(k):
            u = uniforms[s]
            actions = policy.act(state.p, u[:, :n])
            chosen = actions[..., None] == channel_ids
            rates = sample_rates(u[:, n : n + m])
            payoffs = _contend(game.contention, actions, chosen, rates, u[:, n + m :])
            policy.update(state, chosen, payoffs)
            state.slot += 1
            slot = start + s
            payoff_log[:, slot] = payoffs
            if policy.converges:
                state.p.max(axis=-1, out=top[s])
            if config.collect_traces:
                trace_p[:, slot] = state.p
                trace_q[:, slot] = state.q
                trace_a[:, slot] = actions + 1
        try:
            policy.check(state)
        except ValueError as err:
            raise ValueError(
                f"trials {trials[0]}..{trials[-1]} (base seed {config.base_seed}), "
                f"slot {state.slot}: {err}"
            ) from err
        if policy.converges:
            # every user concentrated: learning.is_converged
            hit = top[:k].min(axis=-1) >= 1.0 - config.epsilon
            fresh = (conv < 0) & hit.any(axis=0)
            conv[fresh] = start + hit.argmax(axis=0)[fresh] + 1

    finals = policy.final_profile(state, actions) + 1
    results = []
    for t, index in enumerate(trials):
        if policy.converges:
            conv_slot = int(conv[t]) if conv[t] > 0 else None
        else:
            conv_slot = None if config.random_per_slot else 0
        traces = None
        if config.collect_traces:
            traces = TrialTraces(
                p=trace_p[t], q=trace_q[t], actions=trace_a[t], payoffs=payoff_log[t]
            )
        profile = tuple(int(a) for a in finals[t])
        results.append(_score(config, index, profile, conv_slot, payoff_log[t], traces))
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
    n = int(value)
    if n < 1:
        raise ValueError(f"user counts must be >= 1, got {value!r}")
    return replace(config, game=replace(game, thetas=(theta,) * n))


def sweep(config: SimConfig, variable: str, values) -> tuple[SweepPoint, ...]:
    """One experiment per value of the swept variable."""
    if variable not in SWEEP_VARIABLES:
        raise ValueError(
            f"sweep variable must be one of {SWEEP_VARIABLES}, got {variable!r}"
        )
    points = []
    for value in values:
        summary = run_experiment(_with_value(config, variable, value))
        points.append(SweepPoint(variable=variable, value=float(value), summary=summary))
    return tuple(points)
