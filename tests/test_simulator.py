import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_game
from specgame.capacity import effective_capacity, empirical_effective_capacity
from specgame.channels import ChannelSpec
from specgame.game import Contention, GameSpec, shared_rate_distribution
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
        cfg = SimConfig(game=TWIN, iterations=400, base_seed=8, collect_traces=True)
        r = run_trial(cfg, 0)
        burn_in = min(r.conv_slot, 399) if r.conv_slot is not None else 200
        for u in range(2):
            want = empirical_effective_capacity(
                r.traces.payoffs[burn_in:, u], TWIN.thetas[u]
            )
            assert r.ec_empirical[u] == pytest.approx(want, abs=1e-12)

    def test_window_controls_the_estimate(self):
        cfg = SimConfig(
            game=TWIN, iterations=400, base_seed=8, window=100, collect_traces=True
        )
        r = run_trial(cfg, 0)
        want = empirical_effective_capacity(r.traces.payoffs[300:, 0], 0.01)
        assert r.ec_empirical[0] == pytest.approx(want, abs=1e-12)

    def test_trace_shapes(self):
        cfg = SimConfig(game=TWIN, iterations=50, collect_traces=True)
        r = run_trial(cfg, 0)
        assert r.traces.p.shape == (50, 2, 2)
        assert r.traces.q.shape == (50, 2, 2)
        assert r.traces.actions.shape == (50, 2)
        assert r.traces.payoffs.shape == (50, 2)

    def test_random_baseline_profile_is_frozen(self):
        cfg = SimConfig(
            game=TWIN, iterations=50, algorithm="random", collect_traces=True
        )
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
            collect_traces=True,
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

    @pytest.mark.parametrize("block_bytes, chunk_slots", [(1, 1), (3 * 150 * 2 * 8, 7)])
    def test_block_and_chunk_sizes_do_not_change_results(
        self, monkeypatch, block_bytes, chunk_slots
    ):
        game = replace(TWIN, contention=Contention.SLOT_WINNER)
        cfg = SimConfig(game=game, iterations=150, trials=8, base_seed=13, lam=0.3)
        default = run_experiment(cfg)
        monkeypatch.setattr(simulator, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(simulator, "CHUNK_SLOTS", chunk_slots)
        assert run_experiment(cfg) == default

    def test_summary_permutation_invariant(self):
        cfg = SimConfig(game=TWIN, iterations=100, trials=6, base_seed=3)
        results = [run_trial(cfg, i) for i in range(6)]
        forward = summarize(results)
        backward = summarize(list(reversed(results)))
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

    def test_unknown_variable_rejected(self):
        cfg = SimConfig(game=TWIN, iterations=10)
        with pytest.raises(ValueError, match="sweep variable"):
            sweep(cfg, "snr", (1.0,))
