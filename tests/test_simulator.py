import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import row_major_step
from conftest import random_game
from specgame.capacity import effective_capacity, empirical_effective_capacity
from specgame.channels import ChannelSpec
from specgame.game import Contention, GameSpec, shared_rate_distribution, utility
from specgame.learning import is_converged, sample_profile
from specgame import simulator
from specgame.simulator import (
    SimConfig,
    resolve_contention,
    run_experiment,
    run_trial,
    splitmix64,
    summarize,
    sweep,
    trial_rng,
    trial_seed,
    worker_count,
)

TWIN = GameSpec(
    thetas=(0.01, 0.01),
    channels=(
        ChannelSpec(id=1, rates=(0.0, 2.0), probs=(0.5, 0.5)),
        ChannelSpec(id=2, rates=(0.0, 6.0), probs=(0.5, 0.5)),
    ),
)


class TestSeeding:
    def test_splitmix64_reference_sequence(self):
        # first outputs of the reference implementation at seeds 0 and 1
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_splitmix64_stays_in_64_bits(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_trial_streams_differ_by_index(self):
        a = trial_rng(42, 0).random(4)
        b = trial_rng(42, 1).random(4)
        assert not np.allclose(a, b)

    def test_trial_stream_reproducible(self):
        assert np.array_equal(trial_rng(9, 3).random(8), trial_rng(9, 3).random(8))

    def test_base_seeds_give_independent_streams(self):
        # base_seed XOR i would map seeds 0-3 x trials 0-3 onto only 4 streams
        seeds = {trial_seed(b, i) for b in range(4) for i in range(4)}
        streams = {tuple(trial_rng(b, i).random(4)) for b in range(4) for i in range(4)}
        assert len(seeds) == 16
        assert len(streams) == 16

    def test_trial_seed_formula(self):
        assert trial_seed(5, 3) == splitmix64(splitmix64(5) ^ 3)


class TestWorkerCount:
    def test_default_positive(self):
        assert worker_count() == 1


class TestSimConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="iterations"):
            SimConfig(game=TWIN, iterations=0)
        with pytest.raises(ValueError, match="trials"):
            SimConfig(game=TWIN, trials=0)

    def test_rejects_bad_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            SimConfig(game=TWIN, algorithm="qlearning")

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            SimConfig(game=TWIN, iterations=100, window=101)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            SimConfig(game=TWIN, epsilon=0.0)

    def test_step_parameters_checked_up_front(self):
        with pytest.raises(ValueError):
            SimConfig(game=TWIN, eta=-0.5)

    def test_rejects_bad_sla_gain(self):
        for gain in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="sla_gain"):
                SimConfig(game=TWIN, sla_gain=gain)

    def test_rejects_bad_sla_rate_cap(self):
        for cap in (0.0, -2.0):
            with pytest.raises(ValueError, match="sla_rate_cap"):
                SimConfig(game=TWIN, sla_rate_cap=cap)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_eta_and_sla_rate_cap(self, value):
        with pytest.raises(ValueError, match="eta must be > 0 and finite"):
            SimConfig(game=TWIN, eta=value)
        with pytest.raises(ValueError, match="sla_rate_cap must be > 0 and finite"):
            SimConfig(game=TWIN, sla_rate_cap=value)

    def test_rate_cap_defaults_to_best_rate(self):
        assert SimConfig(game=TWIN).rate_cap() == 6.0
        assert SimConfig(game=TWIN, sla_rate_cap=3.0).rate_cap() == 3.0


class TestResolveContention:
    def test_fair_share_splits_evenly(self):
        rng = np.random.default_rng(0)
        got = resolve_contention(Contention.FAIR_SHARE, (6.0, 2.0), (1, 1), rng.random(2))
        assert got.tolist() == [3.0, 3.0]

    def test_sole_user_gets_full_rate_under_both_models(self):
        rng = np.random.default_rng(0)
        for model in Contention:
            got = resolve_contention(model, (6.0, 2.0), (2,), rng.random(2))
            assert got.tolist() == [2.0]

    def test_slot_winner_single_nonzero_per_channel(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            got = resolve_contention(
                Contention.SLOT_WINNER, (5.0, 1.0), (1, 1, 1, 2), rng.random(2)
            )
            assert np.count_nonzero(got[:3]) == 1
            assert got[:3].sum() == 5.0
            assert got[3] == 1.0

    def test_slot_winner_frequencies(self):
        # each of three contenders wins about a third of the time
        rng = np.random.default_rng(2)
        wins = np.zeros(3)
        for _ in range(100_000):
            got = resolve_contention(
                Contention.SLOT_WINNER, (1.0,), (1, 1, 1), rng.random(1)
            )
            wins += got > 0
        assert np.abs(wins / 100_000 - 1 / 3).max() < 0.01

    def test_slot_winner_takes_rank_floor_u_times_count(self):
        # users 1, 2 and 4 share channel 1; floor(0.7 * 3) = 2 picks user 4
        got = resolve_contention(
            Contention.SLOT_WINNER, (5.0, 1.0), (1, 1, 2, 1), (0.7, 0.0)
        )
        assert got.tolist() == [0.0, 0.0, 1.0, 5.0]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fair_share_conserves_each_channel(self, seed):
        rng = np.random.default_rng(seed)
        g = random_game(rng)
        profile = tuple(int(a) for a in rng.integers(1, g.n_channels + 1, g.n_users))
        rates = rng.uniform(0.0, 5.0, g.n_channels)
        payoffs = resolve_contention(
            Contention.FAIR_SHARE, rates, profile, rng.random(g.n_channels)
        )
        for m in range(1, g.n_channels + 1):
            on_m = [payoffs[u] for u, a in enumerate(profile) if a == m]
            if on_m:
                assert sum(on_m) == pytest.approx(rates[m - 1], abs=1e-12)


def contend(model, chosen, rates, tiebreak):
    """The contention step of simulator._contender on a fresh workspace
    holding the one-hot `chosen` as a sampler leaves it, with the
    channel-major [M, ...] rates and tiebreak laid out as it reads them."""
    shape = chosen.shape[1:]
    work = simulator._Work(len(chosen), shape)
    work.chosen[...] = chosen
    work.hot[...] = chosen
    out = np.empty(shape)
    rates = np.broadcast_to(rates[..., None], chosen.shape)
    simulator._contender(model, work)(rates, tiebreak[..., None], out)
    return out


class TestContendShapes:
    """The engine's contention routine on [T, N] slots and [k, T, N] chunks.

    Its one-hot, rates and tie-breaks are channel-major: [M, k, T, N] and
    [M, k, T] for a chunk.
    """

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(list(Contention)))
    def test_chunk_equals_its_slots_and_the_scalar_rule(self, seed, model):
        rng = np.random.default_rng(seed)
        k, trials = 3, 4
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))  # collisions are common
        actions = rng.integers(0, m, (k, trials, n))
        chosen = actions == np.arange(m).reshape(m, 1, 1, 1)
        rates = rng.uniform(0.0, 5.0, (k, trials, m))
        tiebreak = rng.random((k, trials, m))
        by_channel = rates.transpose(2, 0, 1), tiebreak.transpose(2, 0, 1)
        chunk = contend(model, chosen, *by_channel)
        assert chunk.shape == (k, trials, n)
        slots = [
            contend(model, chosen[:, s], *(a[:, s] for a in by_channel))
            for s in range(k)
        ]
        assert np.array_equal(chunk, np.stack(slots))
        for s in range(k):
            for t in range(trials):
                profile = tuple(int(a) + 1 for a in actions[s, t])
                want = resolve_contention(model, rates[s, t], profile, tiebreak[s, t])
                assert np.array_equal(chunk[s, t], want)

    def test_slot_winner_rank_counts_from_one(self):
        # users 1, 2 and 4 share channel 1; floor(0.7 * 3) = 2 picks user 4
        actions = np.array([[[0, 0, 1, 0]]])
        chosen = actions == np.arange(2).reshape(2, 1, 1, 1)
        got = contend(
            Contention.SLOT_WINNER,
            chosen,
            np.array([[[5.0]], [[1.0]]]),
            np.array([[[0.7]], [[0.0]]]),
        )
        assert got.tolist() == [[[0.0, 0.0, 1.0, 5.0]]]


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class _Uniforms:
    """A stand-in generator whose `random` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u


def sample_uniform(u, m):
    """0-based channels that learning.sample_profile draws from the uniform
    strategy at the users' uniforms u [N]."""
    p = np.full((len(u), m), 1.0 / m)
    return [a - 1 for a in sample_profile(p, _Uniforms(u))]


class TestRandomGather:
    """The random baseline draws with a binary search of the uniform
    strategy's running sums and gathers each user's rate and tie-break; it
    must act as learning.sample_profile and pay what contention pays on
    the chunk's one-hot."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 5),
        trials=st.integers(1, 5),
        k=st.integers(1, 6),
        model=st.sampled_from(list(Contention)),
        per_slot=st.booleans(),
    )
    def test_payoffs_equal_contend_on_the_chunk_one_hot(
        self, seed, n, m, trials, k, model, per_slot
    ):
        rng = np.random.default_rng(seed)
        game = random_game(rng, n_users=n, n_channels=m, contention=model)
        cfg = SimConfig(game=game, algorithm="random", random_per_slot=per_slot)
        policy = simulator.RandomPolicy(cfg)
        first = None
        for _ in range(2):  # a held profile is drawn in the first chunk
            u = rng.random((k, trials, n))
            rates = rng.uniform(0.0, 6.0, (k, trials, m))
            rates[rng.random(rates.shape) < 0.2] = 0.0
            tiebreak = rng.random((k, trials, m))
            got = np.empty((k, trials, n))
            actions = policy.play(model, u, rates, tiebreak, got)
            first = u[0] if first is None else first
            for s in range(k):
                for t in range(trials):
                    at = u[s, t] if per_slot else first[t]
                    assert actions[s, t].tolist() == sample_uniform(at, m)
            chosen = actions == np.arange(m).reshape(m, 1, 1, 1)
            by_channel = rates.transpose(2, 0, 1), tiebreak.transpose(2, 0, 1)
            want = contend(model, chosen, *by_channel)
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_draw_at_the_running_sums(self, m):
        """Each running sum of 1/M and its neighbours, where a draw by
        another comparison or another summation order would differ;
        random uniforms never land on them."""
        sums = np.cumsum(np.full(m, 1.0 / m)).tolist()
        u = sorted(
            {v for s in [0.0, *sums] for v in (math.nextafter(s, -1.0), s, math.nextafter(s, 2.0))}
        )
        u = [v for v in u if 0.0 <= v < 1.0]
        channel = TWIN.channels[0]
        channels = tuple(replace(channel, id=i + 1) for i in range(m))
        game = GameSpec(thetas=(0.01,) * len(u), channels=channels)
        policy = simulator.RandomPolicy(SimConfig(game=game, algorithm="random"))
        got = np.empty((1, 1, len(u)))
        actions = policy.play(
            Contention.FAIR_SHARE, np.array([[u]]), np.zeros((1, 1, m)), np.zeros((1, 1, m)), got
        )
        assert actions[0, 0].tolist() == sample_uniform(u, m)


class TestLearnerChunks:
    """A learner keeps each slot's strategies in a per-chunk history and
    reads its convergence slots and traced p off it once per chunk. No
    output may show where the chunks end."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        algorithm=st.sampled_from(["learn", "sla"]),
        contention=st.sampled_from(list(Contention)),
        iterations=st.sampled_from([1, 63, 64, 65, 129]),
        epsilon=st.sampled_from([0.01, 0.3, 0.6]),
    )
    def test_chunk_size_shows_in_no_output(
        self, seed, algorithm, contention, iterations, epsilon
    ):
        rng = np.random.default_rng(seed)
        game = random_game(rng, contention=contention)
        # per-user exponents, so that a per-user constant tiled the wrong
        # way would show
        thetas = tuple(float(t) for t in rng.choice([0.01, 0.1, 1.0], game.n_users))
        cfg = SimConfig(
            game=replace(game, thetas=thetas),
            iterations=iterations,
            trials=3,
            base_seed=seed,
            algorithm=algorithm,
            eta=2.0,
            lam=0.3,
            epsilon=epsilon,
        )
        runs = []
        for chunk_slots in (1, 7, 64):
            with mock.patch.object(simulator, "CHUNK_SLOTS", chunk_slots):
                runs.append(simulator._run_block(cfg, range(cfg.trials), True))
        oracle = row_major_step.run_block(cfg, range(cfg.trials))
        for t, want in enumerate(runs[-1]):
            p = want.traces.p
            # learning.is_converged at every slot, from the traced p
            hit = p.max(axis=-1).min(axis=-1) >= 1.0 - epsilon
            assert want.conv_slot == (int(hit.argmax()) + 1 if hit.any() else None)
            assert want.profile == tuple((p[-1].argmax(axis=-1) + 1).tolist())
            for field in ("p", "q", "actions", "payoffs"):
                assert np.array_equal(
                    bits(getattr(want.traces, field)), bits(oracle[field][:, t])
                ), field
            for run in runs[:-1]:
                got = run[t]
                assert got == want
                for field in ("p", "q", "actions", "payoffs"):
                    a, b = getattr(got.traces, field), getattr(want.traces, field)
                    assert a.dtype == b.dtype
                    assert np.array_equal(bits(a), bits(b)), field


    @pytest.mark.parametrize("algorithm", ["learn", "sla"])
    @pytest.mark.parametrize("contention", list(Contention))
    def test_convergence_slots_once_every_trial_has_converged(self, algorithm, contention):
        """The convergence scan stops once every trial of the block has a
        convergence slot; each must still be the first slot at which
        learning.is_converged holds."""
        game = GameSpec(
            thetas=(0.5, 0.1, 1.0),
            channels=(
                ChannelSpec(id=1, rates=(0.0, 2.0), probs=(0.5, 0.5)),
                ChannelSpec(id=2, rates=(1.0, 6.0), probs=(0.5, 0.5)),
                ChannelSpec(id=3, rates=(0.0, 3.0), probs=(0.3, 0.7)),
            ),
            contention=contention,
        )
        cfg = SimConfig(
            game=game,
            iterations=200,
            trials=3,
            base_seed=6,
            algorithm=algorithm,
            eta=2.0,
            lam=0.3,
            sla_gain=0.5,
            epsilon=0.1,
        )
        chunk_slots = 16
        with mock.patch.object(simulator, "CHUNK_SLOTS", chunk_slots):
            traced = simulator._run_block(cfg, range(cfg.trials), True)
            untraced = run_experiment(cfg).results
        conv = [r.conv_slot for r in traced]
        # every trial converges before the last of the 13 chunks
        assert None not in conv and max(conv) <= cfg.iterations - chunk_slots
        for got in traced:
            first = next(
                slot
                for slot, p in enumerate(got.traces.p, 1)
                if is_converged(p, cfg.epsilon)
            )
            assert got.conv_slot == first
        assert [r.conv_slot for r in untraced] == conv


class TestBlockScoring:
    """Scoring against the per-user scalar functions, bit for bit: _score's
    empirical EC, and the closed-form EC that _run_block gathers from the
    count tables."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        slots=st.integers(1, 300),
        window=st.none() | st.integers(1, 300),
        conv_slot=st.none() | st.integers(0, 300),
        trials=st.integers(1, 3),
        model=st.sampled_from(list(Contention)),
    )
    def test_matches_empirical_capacity(self, seed, slots, window, conv_slot, trials, model):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        # distinct exponents, up to theta * rate of about 700
        thetas = tuple(float(t) for t in rng.choice([1e-3, 0.01, 0.1, 1.0, 10.0, 50.0], n))
        game = replace(random_game(rng, n_users=n, n_channels=m, contention=model), thetas=thetas)
        window = None if window is None else min(window, slots)
        config = SimConfig(game=game, iterations=slots, window=window)
        # slot-major like the engine's log, read one trial at a time
        log = rng.uniform(0.0, 14.0, (slots, trials, n))
        log[rng.random(log.shape) < 0.3] = 0.0
        got = simulator._score(config, conv_slot, log[:, trials - 1])
        if window is not None:
            burn_in = slots - window
        elif conv_slot is not None:
            burn_in = min(conv_slot, slots - 1)
        else:
            burn_in = slots // 2
        tail = log[burn_in:, trials - 1]
        want = [empirical_effective_capacity(tail[:, u], thetas[u]) for u in range(n)]
        assert np.array_equal(bits(got), bits(want))

    def test_all_zero_tail_is_positive_zero(self):
        game = GameSpec(thetas=(0.01, 50.0, 1.0), channels=TWIN.channels)
        got = simulator._score(SimConfig(game=game, iterations=4, window=4), None, np.zeros((4, 3)))
        assert bits(got).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("slots", [1, 2, 8191, 8192, 8193, 20000])
    def test_one_slot_and_long_tails(self, slots):
        rng = np.random.default_rng(slots)
        game = GameSpec(thetas=(0.01, 50.0, 1.0), channels=TWIN.channels)
        config = SimConfig(game=game, iterations=slots, window=slots)
        log = rng.uniform(0.0, 14.0, (slots, 2, 3))
        got = simulator._score(config, None, log[:, 1])
        want = [empirical_effective_capacity(log[:, 1, u], game.thetas[u]) for u in range(3)]
        assert np.array_equal(bits(got), bits(want))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        algorithm=st.sampled_from(["learn", "sla", "random"]),
        model=st.sampled_from(list(Contention)),
        one_channel=st.booleans(),
    )
    def test_closed_form_is_utility_across_blocks(self, seed, algorithm, model, one_channel):
        # mixed exponents, three trials to a block; at M = 1 every user
        # shares the one channel, so the gather runs N columns wide
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), 1 if one_channel else int(rng.integers(2, 4))
        thetas = tuple(float(t) for t in rng.choice([0.01, 0.5, 3.0], n))
        game = replace(random_game(rng, n_users=n, n_channels=m, contention=model), thetas=thetas)
        cfg = SimConfig(
            game=game, iterations=40, trials=7, base_seed=seed, lam=0.3, algorithm=algorithm
        )
        with (
            mock.patch.object(simulator, "BLOCK_BYTES", 3 * 8 * n * cfg.iterations),
            mock.patch.object(simulator, "_run_block", wraps=simulator._run_block) as block,
        ):
            results = run_experiment(cfg).results
        assert [len(c.args[1]) for c in block.call_args_list] == [3, 3, 1]
        for r in results:
            want = [utility(game, r.profile, u) for u in range(n)]
            assert np.array_equal(bits(r.ec_closed), bits(want))
            assert r.agg_ec_closed == sum(want)


DOMINANT = GameSpec(
    thetas=(0.01,),
    channels=(
        ChannelSpec(id=1, rates=(0.5, 2.0), probs=(0.5, 0.5)),
        ChannelSpec(id=2, rates=(1.0, 6.0), probs=(0.5, 0.5)),
    ),
)


class TestRunTrial:
    def test_dominant_channel_wins(self):
        cfg = SimConfig(game=DOMINANT, iterations=300, base_seed=7, lam=0.3)
        hits = sum(run_trial(cfg, i).profile == (2,) for i in range(100))
        assert hits >= 99

    def test_zero_rate_channels_give_zero_capacity(self):
        dead = GameSpec(
            thetas=(0.5, 0.5),
            channels=(
                ChannelSpec(id=1, rates=(0.0,), probs=(1.0,)),
                ChannelSpec(id=2, rates=(0.0,), probs=(1.0,)),
            ),
        )
        r = run_trial(SimConfig(game=dead, iterations=50), 0)
        assert r.ec_closed == (0.0, 0.0)
        assert r.ec_empirical == (0.0, 0.0)
        assert r.agg_ec_closed == 0.0

    def test_deterministic(self):
        cfg = SimConfig(game=TWIN, iterations=200, base_seed=42)
        assert run_trial(cfg, 3) == run_trial(cfg, 3)

    def test_aggregate_is_sum_of_users(self):
        cfg = SimConfig(game=TWIN, iterations=200, base_seed=5)
        r = run_trial(cfg, 0)
        assert r.agg_ec_closed == pytest.approx(sum(r.ec_closed), abs=1e-9)
        assert r.agg_ec_empirical == pytest.approx(sum(r.ec_empirical), abs=1e-9)

    def test_empirical_ec_matches_trace_payoffs(self):
        cfg = SimConfig(game=TWIN, iterations=400, base_seed=8)
        r = run_trial(cfg, 0)
        burn_in = min(r.conv_slot, 399) if r.conv_slot is not None else 200
        for u in range(2):
            want = empirical_effective_capacity(
                r.traces.payoffs[burn_in:, u], TWIN.thetas[u]
            )
            assert r.ec_empirical[u] == pytest.approx(want, abs=1e-12)

    def test_window_controls_the_estimate(self):
        cfg = SimConfig(game=TWIN, iterations=400, base_seed=8, window=100)
        r = run_trial(cfg, 0)
        want = empirical_effective_capacity(r.traces.payoffs[300:, 0], 0.01)
        assert r.ec_empirical[0] == pytest.approx(want, abs=1e-12)

    def test_trace_shapes(self):
        cfg = SimConfig(game=TWIN, iterations=50)
        r = run_trial(cfg, 0)
        assert r.traces.p.shape == (50, 2, 2)
        assert r.traces.q.shape == (50, 2, 2)
        assert r.traces.actions.shape == (50, 2)
        assert r.traces.payoffs.shape == (50, 2)

    def test_random_baseline_profile_is_frozen(self):
        cfg = SimConfig(game=TWIN, iterations=50, algorithm="random")
        r = run_trial(cfg, 0)
        assert r.conv_slot == 0
        assert (r.traces.actions == r.traces.actions[0]).all()
        assert r.profile == tuple(int(a) for a in r.traces.actions[0])

    def test_random_per_slot_redraws(self):
        cfg = SimConfig(
            game=TWIN,
            iterations=100,
            algorithm="random",
            random_per_slot=True,
        )
        r = run_trial(cfg, 0)
        assert r.conv_slot is None
        assert len({tuple(row) for row in r.traces.actions.tolist()}) > 1

    def test_sla_trial_runs_and_scores(self):
        cfg = SimConfig(game=TWIN, iterations=2000, algorithm="sla", base_seed=2)
        r = run_trial(cfg, 0)
        assert len(r.profile) == 2
        assert all(1 <= a <= 2 for a in r.profile)
        assert r.agg_ec_closed > 0.0


class TestRunExperiment:
    def test_single_trial_summary_is_that_trial(self):
        cfg = SimConfig(game=TWIN, iterations=200, base_seed=1)
        s = run_experiment(cfg)
        r = run_trial(cfg, 0)
        assert s.results == (r,)
        assert s.mean_agg_closed == r.agg_ec_closed
        assert s.std_agg_closed == 0.0

    def test_mean_over_trials(self):
        cfg = SimConfig(game=TWIN, iterations=200, trials=5, base_seed=1)
        s = run_experiment(cfg)
        aggs = [r.agg_ec_closed for r in s.results]
        assert s.mean_agg_closed == pytest.approx(np.mean(aggs), abs=1e-12)
        assert s.std_agg_closed == pytest.approx(np.std(aggs, ddof=1), abs=1e-12)
        assert [r.trial for r in s.results] == [0, 1, 2, 3, 4]

    def test_repeat_runs_are_identical(self):
        cfg = SimConfig(game=TWIN, iterations=150, trials=8, base_seed=13)
        assert run_experiment(cfg) == run_experiment(cfg)

    @pytest.mark.parametrize("algorithm", ["learn", "sla", "random"])
    def test_fewer_trials_keep_the_leading_results(self, algorithm):
        cfg = SimConfig(
            game=TWIN, iterations=150, trials=8, base_seed=13, algorithm=algorithm
        )
        full = run_experiment(cfg).results
        fewer = run_experiment(replace(cfg, trials=3)).results
        assert fewer == full[:3]
        assert all(run_trial(cfg, i) == full[i] for i in (0, 5))

    @pytest.mark.parametrize("block_trials, chunk_slots", [(1, 1), (3, 7)])
    @pytest.mark.parametrize("contention", list(Contention))
    @pytest.mark.parametrize(
        "algorithm, per_slot",
        [("learn", False), ("sla", False), ("random", False), ("random", True)],
    )
    def test_block_and_chunk_sizes_do_not_change_results(
        self, monkeypatch, block_trials, chunk_slots, contention, algorithm, per_slot
    ):
        game = replace(TWIN, contention=contention)
        cfg = SimConfig(
            game=game,
            iterations=150,
            trials=8,
            base_seed=13,
            lam=0.3,
            algorithm=algorithm,
            random_per_slot=per_slot,
        )
        default = run_experiment(cfg)
        default_traced = simulator._run_block(cfg, range(cfg.trials), True)
        blocks = []
        run_block = simulator._run_block
        monkeypatch.setattr(
            simulator,
            "_run_block",
            lambda config, trials: blocks.append(len(trials)) or run_block(config, trials),
        )
        # a block of untraced trials holds their [slots, N] payoff logs
        monkeypatch.setattr(simulator, "BLOCK_BYTES", block_trials * 8 * 2 * 150)
        monkeypatch.setattr(simulator, "CHUNK_SLOTS", chunk_slots)
        got = run_experiment(cfg)
        assert blocks == ([1] * 8 if block_trials == 1 else [3, 3, 2])
        assert got == default
        traced = run_block(cfg, range(cfg.trials), True)
        assert traced == default_traced == list(default.results)
        for a, b in zip(traced, default_traced):
            for field in ("p", "q", "actions", "payoffs"):
                assert np.array_equal(getattr(a.traces, field), getattr(b.traces, field))

    @pytest.mark.parametrize(
        "algorithm, per_slot",
        [("learn", False), ("sla", False), ("random", False), ("random", True)],
    )
    def test_a_trial_traces_alike_alone_and_in_a_block(self, algorithm, per_slot):
        cfg = SimConfig(
            game=replace(TWIN, thetas=(0.01, 0.5)),
            iterations=150,
            base_seed=21,
            lam=0.3,
            algorithm=algorithm,
            random_per_slot=per_slot,
        )
        block = simulator._run_block(cfg, range(5), True)
        for i in range(5):
            alone = run_trial(cfg, i)
            assert alone == block[i]
            for field in ("p", "q", "actions", "payoffs"):
                a, b = getattr(alone.traces, field), getattr(block[i].traces, field)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), field

    def test_summary_permutation_invariant(self):
        cfg = SimConfig(game=TWIN, iterations=100, trials=6, base_seed=3)
        results = [run_trial(cfg, i) for i in range(6)]
        forward = summarize(results, True)
        backward = summarize(list(reversed(results)), True)
        assert forward.mean_agg_closed == backward.mean_agg_closed
        assert forward.convergence_rate == backward.convergence_rate

    def test_random_baseline_matches_four_profile_expectation(self):
        # identical channels: the 4 equiprobable profiles average exactly
        twin_same = GameSpec(
            thetas=(0.01, 0.01),
            channels=(
                ChannelSpec(id=1, rates=(0.0, 2.0), probs=(0.5, 0.5)),
                ChannelSpec(id=2, rates=(0.0, 2.0), probs=(0.5, 0.5)),
            ),
        )
        ec_solo = effective_capacity(
            shared_rate_distribution(twin_same.channels[0], 1, Contention.FAIR_SHARE),
            0.01,
        )
        ec_shared = effective_capacity(
            shared_rate_distribution(twin_same.channels[0], 2, Contention.FAIR_SHARE),
            0.01,
        )
        exact = ec_solo + ec_shared
        cfg = SimConfig(
            game=twin_same, iterations=1, trials=2000, base_seed=11, algorithm="random"
        )
        s = run_experiment(cfg)
        assert s.mean_agg_closed == pytest.approx(exact, abs=0.02)

    def test_convergence_rate_counts_converged_trials(self):
        cfg = SimConfig(game=TWIN, iterations=500, trials=4, base_seed=1)
        s = run_experiment(cfg)
        manual = sum(r.conv_slot is not None for r in s.results) / 4
        assert s.convergence_rate == manual

    @pytest.mark.parametrize("per_slot", [False, True])
    def test_random_baseline_has_no_convergence_rate(self, per_slot):
        cfg = SimConfig(
            game=TWIN, iterations=50, trials=3, algorithm="random", random_per_slot=per_slot
        )
        s = run_experiment(cfg)
        assert math.isnan(s.convergence_rate)
        assert s.mean_conv_slot is None
        # the held baseline's trials keep conv_slot 0 for its fixed profile
        assert [r.conv_slot for r in s.results] == [None if per_slot else 0] * 3


class TestSweep:
    def test_single_value_sweep_equals_experiment(self):
        cfg = SimConfig(game=TWIN, iterations=100, trials=3, base_seed=2)
        pts = sweep(cfg, "eta", (0.1,))
        assert len(pts) == 1
        assert pts[0].value == 0.1
        assert pts[0].summary == run_experiment(cfg)

    def test_theta_sweep_decreases_closed_aggregate(self):
        # frozen random profiles: tightening the QoS target only costs capacity
        cfg = SimConfig(
            game=TWIN, iterations=1, trials=64, base_seed=3, algorithm="random"
        )
        pts = sweep(cfg, "theta", (0.01, 0.1, 1.0))
        aggs = [p.summary.mean_agg_closed for p in pts]
        assert aggs[0] > aggs[1] > aggs[2]
        profiles = [tuple(r.profile for r in p.summary.results) for p in pts]
        assert profiles[0] == profiles[1] == profiles[2]

    def test_users_sweep_resizes_population(self):
        cfg = SimConfig(game=TWIN, iterations=50, trials=2, base_seed=4)
        pts = sweep(cfg, "users", (2, 4))
        assert [len(p.summary.results[0].profile) for p in pts] == [2, 4]

    def test_value_order_is_preserved_independently(self):
        cfg = SimConfig(game=TWIN, iterations=50, trials=2, base_seed=4)
        forward = sweep(cfg, "users", (2, 3))
        backward = sweep(cfg, "users", (3, 2))
        assert forward[0].summary == backward[1].summary
        assert forward[1].summary == backward[0].summary

    def test_users_sweep_needs_common_exponent(self):
        mixed = GameSpec(thetas=(0.1, 0.2), channels=TWIN.channels)
        cfg = SimConfig(game=mixed, iterations=10)
        with pytest.raises(ValueError, match="common QoS exponent"):
            sweep(cfg, "users", (3,))

    @pytest.mark.parametrize(
        "thetas, variable, values",
        [
            ((0.01, 0.01), "users", (2, 0)),
            ((0.01, 0.01), "users", (2, 2.5)),
            ((0.01, 0.01), "eta", (0.1, -1.0)),
            ((0.01, 0.01), "theta", (0.1, 0.0)),
            ((0.1, 0.2), "users", (2, 3)),
        ],
    )
    def test_bad_point_raises_before_the_first_runs(
        self, thetas, variable, values, monkeypatch
    ):
        ran = []
        monkeypatch.setattr(simulator, "run_experiment", ran.append)
        game = GameSpec(thetas=thetas, channels=TWIN.channels)
        with pytest.raises(ValueError, match=f"sweep {variable} = "):
            sweep(SimConfig(game=game, iterations=10), variable, values)
        assert ran == []

    def test_unknown_variable_rejected(self):
        cfg = SimConfig(game=TWIN, iterations=10)
        with pytest.raises(ValueError, match="sweep variable"):
            sweep(cfg, "snr", (1.0,))
