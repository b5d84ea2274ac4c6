"""The lockstep engine against a scalar reference loop.

`reference_trial` is the per-slot trial loop written with the public scalar
functions of `learning`, `channels` and `simulator`. It draws from the same
trial stream in the engine's layout (N action uniforms, M channel-state
uniforms, M tie-break uniforms per slot), so the two must agree to rounding.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_game
from specgame.capacity import empirical_effective_capacity
from specgame.channels import ChannelSpec, sample_realization
from specgame.game import Contention, GameSpec, utility
from specgame.learning import (
    StepSchedule,
    init_sla,
    init_state,
    is_converged,
    random_baseline_profile,
    sample_profile,
    select_actions,
    sla_update,
    update_estimates,
    update_probabilities,
)
from specgame import simulator
from specgame.simulator import (
    BlockState,
    LearnPolicy,
    SimConfig,
    SLAPolicy,
    resolve_contention,
    run_experiment,
    trial_rng,
)

TOL = 1e-12


def reference_trial(config: SimConfig, index: int) -> dict:
    """One trial, slot by slot, through the scalar per-slot functions."""
    game = config.game
    n, m = game.n_users, game.n_channels
    rng = trial_rng(config.base_seed, index)
    schedule = StepSchedule(eta=config.eta, lam=config.lam)
    learner = init_state(n, m)
    sla = init_sla(n, m, b=config.sla_gain, r_max=config.rate_cap())
    uniform = np.full((n, m), 1.0 / m)
    no_estimates = np.zeros((n, m))
    profile = None
    conv_slot = None
    ps, qs, actions, payoff_log = [], [], [], []
    for slot in range(config.iterations):
        if config.algorithm == "learn":
            profile = select_actions(learner, rng)
        elif config.algorithm == "sla":
            profile = sample_profile(sla.p, rng)
        else:
            draw = random_baseline_profile(n, m, rng)
            if profile is None or config.random_per_slot:
                profile = draw
        realization = sample_realization(game.channels, rng)
        payoffs = resolve_contention(game.contention, realization, profile, rng.random(m))
        if config.algorithm == "learn":
            learner = update_estimates(learner, profile, payoffs, game.thetas, schedule)
            learner = update_probabilities(learner, schedule)
            p, q = learner.p, learner.q
        elif config.algorithm == "sla":
            sla = sla_update(sla, profile, payoffs)
            p, q = sla.p, no_estimates
        else:
            p, q = uniform, no_estimates
        if config.algorithm != "random" and conv_slot is None and is_converged(
            p, config.epsilon
        ):
            conv_slot = slot + 1
        ps.append(p)
        qs.append(q)
        actions.append(profile)
        payoff_log.append(payoffs)
    if config.algorithm == "random":
        conv_slot = None if config.random_per_slot else 0
    else:
        profile = tuple(int(a) + 1 for a in p.argmax(axis=1))
    payoff_log = np.array(payoff_log)
    if config.window is not None:
        burn_in = config.iterations - config.window
    elif conv_slot is not None:
        burn_in = min(conv_slot, config.iterations - 1)
    else:
        burn_in = config.iterations // 2
    return {
        "profile": tuple(profile),
        "conv_slot": conv_slot,
        "p": np.array(ps),
        "q": np.array(qs),
        "actions": np.array(actions),
        "payoffs": payoff_log,
        "ec_closed": [utility(game, profile, u) for u in range(n)],
        "ec_empirical": [
            empirical_effective_capacity(payoff_log[burn_in:, u], game.thetas[u])
            for u in range(n)
        ],
    }


@st.composite
def small_configs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = random_game(
        rng,
        n_users=draw(st.integers(1, 4)),
        n_channels=draw(st.integers(1, 4)),
        contention=draw(st.sampled_from(list(Contention))),
    )
    return SimConfig(
        game=game,
        iterations=draw(st.integers(1, 120)),
        trials=draw(st.integers(1, 3)),
        base_seed=draw(st.integers(0, 2**64 - 1)),
        algorithm=draw(st.sampled_from(["learn", "sla", "random"])),
        eta=draw(st.sampled_from([0.1, 0.5, 2.0])),
        lam=draw(st.sampled_from([None, 0.3, 1.0])),
        epsilon=draw(st.sampled_from([0.01, 0.2])),
        sla_gain=draw(st.sampled_from([0.08, 0.5])),
        random_per_slot=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_engine_matches_scalar_reference(config):
    for got in simulator._run_block(config, range(config.trials), True):
        want = reference_trial(config, got.trial)
        assert got.profile == want["profile"]
        assert got.conv_slot == want["conv_slot"]
        assert np.abs(got.traces.payoffs - want["payoffs"]).max() <= TOL
        assert np.abs(got.traces.p - want["p"]).max() <= TOL
        assert np.abs(got.traces.q - want["q"]).max() <= TOL
        assert np.array_equal(got.traces.actions, want["actions"])
        assert got.ec_closed == pytest.approx(want["ec_closed"], rel=TOL, abs=TOL)
        assert got.ec_empirical == pytest.approx(want["ec_empirical"], rel=TOL, abs=TOL)


def test_fig2_sized_trial_matches_scalar_reference():
    game = GameSpec(
        thetas=(0.01,) * 8,
        channels=tuple(
            ChannelSpec(id=m, rates=(0.0, 1.0, 2.0, 3.0, 6.0), probs=(0.3, 0.2, 0.2, 0.2, 0.1))
            for m in range(1, 6)
        ),
        contention=Contention.SLOT_WINNER,
    )
    config = SimConfig(game=game, iterations=600, trials=2, base_seed=77, lam=0.3)
    for got in simulator._run_block(config, range(config.trials), True):
        want = reference_trial(config, got.trial)
        assert got.profile == want["profile"]
        assert got.conv_slot == want["conv_slot"]
        assert np.abs(got.traces.p - want["p"]).max() <= TOL


class TestChunkChecks:
    """The invariants the engine checks once per chunk."""

    def config(self, algorithm):
        game = GameSpec(
            thetas=(0.5, 2.0),
            channels=(
                ChannelSpec(id=1, rates=(0.0, 2.0), probs=(0.5, 0.5)),
                ChannelSpec(id=2, rates=(1.0,), probs=(1.0,)),
            ),
        )
        return SimConfig(game=game, algorithm=algorithm)

    def state(self):
        # channel-major [M, T, N]: 2 channels, 3 trials, 2 users
        return BlockState(p=np.full((2, 3, 2), 0.5), q=np.zeros((2, 3, 2)))

    @pytest.mark.parametrize("policy", [LearnPolicy, SLAPolicy])
    def test_sound_state_passes(self, policy):
        policy(self.config("learn")).check(self.state())

    @pytest.mark.parametrize("policy", [LearnPolicy, SLAPolicy])
    def test_strategy_off_the_simplex_raises(self, policy):
        state = self.state()
        state.p[0, 1, 0] = 0.7  # channel 1 of user 1 in the second trial
        with pytest.raises(ValueError, match="simplex"):
            policy(self.config("learn")).check(state)

    def test_estimate_above_inverse_theta_raises(self):
        state = self.state()
        state.q[0, 2, 1] = 1.0 / 2.0 + 1e-6  # user 2 has theta 2
        with pytest.raises(ValueError, match="1/theta"):
            LearnPolicy(self.config("learn")).check(state)

    def test_nan_estimate_raises(self):
        state = self.state()
        state.q[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            LearnPolicy(self.config("learn")).check(state)

    @pytest.mark.parametrize("policy", [LearnPolicy, SLAPolicy])
    def test_infinite_strategy_raises_finite_not_drift(self, policy):
        state = self.state()
        state.p[1, 2, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            policy(self.config("learn")).check(state)

    def test_each_estimate_meets_its_own_users_limit(self):
        # the sla_mix exponents: the 1/theta limits run from 2 to 1000
        thetas = (0.02, 0.05, 0.1, 0.2, 0.5, 0.002, 0.005, 0.01, 0.001)
        config = self.config("learn")
        policy = LearnPolicy(replace(config, game=replace(config.game, thetas=thetas)))
        limits = 1.0 / np.array(thetas)
        # every estimate at its own user's 1/theta, above most other users' limits
        at_limit = np.broadcast_to(limits, (2, 3, len(thetas))).copy()
        policy.check(BlockState(p=np.full(at_limit.shape, 0.5), q=at_limit))
        for user, limit in enumerate(limits):
            q = at_limit.copy()
            q[1, 2, user] = limit * (1.0 + 1e-6)
            with pytest.raises(ValueError, match="1/theta"):
                policy.check(BlockState(p=np.full(q.shape, 0.5), q=q))


def test_corrupted_state_fails_the_run_naming_its_trials(monkeypatch):
    class Drifting(LearnPolicy):
        def bind(self, state, chosen):
            update = super().bind(state, chosen)

            def drifting(payoffs, lam):
                update(payoffs, lam)
                state.p *= 1.001  # in place: the slot step reads p's buffer

            return drifting

    monkeypatch.setitem(simulator.POLICIES, "learn", Drifting)
    config = TestChunkChecks().config("learn")
    with pytest.raises(ValueError, match=r"trials 0\.\.2 .*simplex"):
        run_experiment(replace(config, iterations=10, trials=3))
