import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute_force
from brute_force import (
    expected_rate_share,
    rosenthal_potential,
    surrogate_potential,
    surrogate_utility,
)
from conftest import random_channels, random_game
from specgame.channels import ChannelSpec
from specgame.game import (
    TIE_TOL,
    BestResponseLimitError,
    Contention,
    GameSpec,
    analyze,
    best_response_path,
    congestion_counts,
    count_tables,
    enumerate_nash,
    is_nash,
    occupancy_vectors,
    ordinal_potential,
    potential_maximizer,
    profile_utilities,
    shared_rate_distribution,
    total_utility,
    user_rate_distribution,
    utility,
    verify_potentials,
)

TWO_STATE = ChannelSpec(id=1, rates=(0.0, 2.0), probs=(0.5, 0.5))


def twin_channel_game(theta=1.0):
    """Two identical {0, 2} channels, two users."""
    return GameSpec(
        thetas=(theta, theta),
        channels=(
            TWO_STATE,
            ChannelSpec(id=2, rates=(0.0, 2.0), probs=(0.5, 0.5)),
        ),
    )


class TestGameSpec:
    def test_requires_ordered_ids(self):
        with pytest.raises(ValueError, match="ids must be 1..M"):
            GameSpec(
                thetas=(1.0,),
                channels=(ChannelSpec(id=2, rates=(1.0,), probs=(1.0,)),),
            )

    def test_requires_positive_thetas(self):
        with pytest.raises(ValueError, match="finite and > 0"):
            GameSpec(thetas=(1.0, 0.0), channels=(TWO_STATE,))

    def test_homogeneous_theta(self):
        assert twin_channel_game(0.3).homogeneous_theta() == 0.3
        mixed = GameSpec(thetas=(0.1, 0.2), channels=(TWO_STATE,))
        assert mixed.homogeneous_theta() is None

    def test_contention_from_str(self):
        assert Contention.from_str("fair_share") is Contention.FAIR_SHARE
        assert Contention.from_str("slot_winner") is Contention.SLOT_WINNER
        with pytest.raises(ValueError, match="unknown contention"):
            Contention.from_str("tdma")


class TestCongestionCounts:
    def test_example(self):
        assert congestion_counts((1, 1, 2), 3) == (2, 1, 0)

    def test_all_on_one(self):
        assert congestion_counts((3, 3, 3), 3) == (0, 0, 3)


class TestRateDistributions:
    def test_fair_share_halves_rates(self):
        d = shared_rate_distribution(TWO_STATE, 2, Contention.FAIR_SHARE)
        assert d.values == (0.0, 1.0)
        assert d.probs == (0.5, 0.5)

    def test_slot_winner_merges_zero_mass(self):
        """With 2 contenders: win rate 2 w.p. 0.5/2, rate 0 otherwise."""
        d = shared_rate_distribution(TWO_STATE, 2, Contention.SLOT_WINNER)
        assert d.values == (0.0, 2.0)
        assert d.probs == pytest.approx((0.75, 0.25), abs=1e-15)

    def test_slot_winner_solo_is_channel_law(self):
        d = shared_rate_distribution(TWO_STATE, 1, Contention.SLOT_WINNER)
        assert d.values == TWO_STATE.rates
        assert d.probs == TWO_STATE.probs

    def test_same_mean_under_both_models(self):
        for c in (1, 2, 3, 5):
            fair = shared_rate_distribution(TWO_STATE, c, Contention.FAIR_SHARE)
            winner = shared_rate_distribution(TWO_STATE, c, Contention.SLOT_WINNER)
            assert fair.mean() == pytest.approx(TWO_STATE.law.mean() / c, rel=1e-12)
            assert winner.mean() == pytest.approx(TWO_STATE.law.mean() / c, rel=1e-12)

    def test_user_rate_distribution_uses_profile(self):
        g = twin_channel_game()
        d = user_rate_distribution(g, (1, 1), 0)
        assert d.values == (0.0, 1.0)
        d = user_rate_distribution(g, (1, 2), 0)
        assert d.values == (0.0, 2.0)

    def test_profile_validation(self):
        g = twin_channel_game()
        with pytest.raises(ValueError, match="entries"):
            user_rate_distribution(g, (1,), 0)
        with pytest.raises(ValueError, match="channel ids"):
            user_rate_distribution(g, (1, 3), 0)


class TestUtility:
    def test_shared_channel_example(self):
        """Both users on {0, 2} at theta=1: C of {0, 1} = -ln(0.5*(1+1/e))."""
        g = twin_channel_game()
        got = utility(g, (1, 1), 0)
        assert got == pytest.approx(-math.log(0.5 * (1 + math.exp(-1))), rel=1e-12)
        assert got == pytest.approx(0.3798854930417224, rel=1e-12)
        assert utility(g, (1, 2), 0) == pytest.approx(0.5662191695169727, rel=1e-12)

    def test_expected_rate_share(self):
        g = twin_channel_game()
        assert expected_rate_share(g, (1, 2), 0) == pytest.approx(1.0, rel=1e-12)
        assert expected_rate_share(g, (1, 1), 0) == pytest.approx(0.5, rel=1e-12)
        # the quoted 5 dB mean 1.2773 halves to 0.63865 per contender
        assert 1.2773 / 2 == pytest.approx(0.63865, abs=1e-12)

    def test_surrogate_below_capacity(self):
        g = twin_channel_game()
        for prof in itertools.product((1, 2), repeat=2):
            assert surrogate_utility(g, prof, 0) <= utility(g, prof, 0) + 1e-12


class TestPotentials:
    def test_rosenthal_example(self):
        """Two users on one channel of mean 2: 2/1 + 2/2 = 3."""
        ch = ChannelSpec(id=1, rates=(2.0,), probs=(1.0,))
        g = GameSpec(thetas=(1.0, 1.0), channels=(ch,))
        assert rosenthal_potential(g, (1, 1)) == pytest.approx(3.0, rel=1e-12)

    def test_ordinal_potential_single_channel(self):
        """M=1, K=1, rate 2, theta=0.5, both users on it:
        phi = exp(-1) + exp(-0.5)."""
        ch = ChannelSpec(id=1, rates=(2.0,), probs=(1.0,))
        g = GameSpec(thetas=(0.5, 0.5), channels=(ch,))
        phi = math.exp(-1.0) + math.exp(-0.5)
        assert ordinal_potential(g, (1, 1)) == pytest.approx(
            -math.log(phi) / 0.5, rel=1e-12
        )
        assert surrogate_potential(g, (1, 1)) == pytest.approx(
            (1.0 - phi) / 0.5, rel=1e-12
        )

    def test_requires_common_exponent(self):
        g = GameSpec(thetas=(0.1, 0.2), channels=(TWO_STATE,))
        with pytest.raises(ValueError, match="common QoS exponent"):
            ordinal_potential(g, (1, 1))
        with pytest.raises(ValueError, match="common QoS exponent"):
            surrogate_potential(g, (1, 1))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rosenthal_tracks_share_deltas_exactly(self, seed):
        """Unilateral deviations change the Rosenthal potential by exactly the
        deviator's expected-rate-share change."""
        rng = np.random.default_rng(seed)
        g = random_game(rng)
        prof = tuple(int(a) for a in rng.integers(1, g.n_channels + 1, g.n_users))
        n = int(rng.integers(g.n_users))
        b = int(rng.integers(1, g.n_channels + 1))
        if b == prof[n]:
            return
        moved = prof[:n] + (b,) + prof[n + 1 :]
        d_share = expected_rate_share(g, moved, n) - expected_rate_share(g, prof, n)
        d_phi = rosenthal_potential(g, moved) - rosenthal_potential(g, prof)
        assert d_phi == pytest.approx(d_share, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_ordinal_potential_tracks_utility_signs(self, seed):
        rng = np.random.default_rng(seed)
        g = random_game(rng)
        prof = tuple(int(a) for a in rng.integers(1, g.n_channels + 1, g.n_users))
        n = int(rng.integers(g.n_users))
        b = int(rng.integers(1, g.n_channels + 1))
        if b == prof[n]:
            return
        moved = prof[:n] + (b,) + prof[n + 1 :]
        d_u = utility(g, moved, n) - utility(g, prof, n)
        d_phi = ordinal_potential(g, moved) - ordinal_potential(g, prof)
        if abs(d_u) > 1e-12 or abs(d_phi) > 1e-12:
            assert math.copysign(1, d_u) == math.copysign(1, d_phi)

    def test_underflowing_phi_gives_finite_potentials(self):
        """At theta 800 the state with one user per channel has phi exactly
        0; its potential comes from log space instead."""
        g = GameSpec(
            thetas=(800.0, 800.0),
            channels=(
                ChannelSpec(id=1, rates=(1.0, 2.0), probs=(0.5, 0.5)),
                ChannelSpec(id=2, rates=(1.0, 3.0), probs=(0.5, 0.5)),
            ),
        )

        def log_space(profile):
            # -(1/theta) log phi from phi's terms p exp(-theta r / l)
            x = [
                math.log(p) - 800.0 * r / l
                for ch, c in zip(g.channels, congestion_counts(profile, 2))
                for l in range(1, c + 1)
                for r, p in zip(ch.rates, ch.probs)
            ]
            top = max(x)
            return -(top + math.log(math.fsum(math.exp(v - top) for v in x))) / 800.0

        profiles = list(itertools.product((1, 2), repeat=2))
        want = [log_space(prof) for prof in profiles]
        for prof, value in zip(profiles, want):
            got = ordinal_potential(g, prof)
            assert math.isfinite(got)
            assert abs(got - value) <= 1e-12
        assert potential_maximizer(g) == profiles[int(np.argmax(want))]
        report = verify_potentials(g)
        assert report.opg_sign_disagreements == 0
        assert report.opg_zero_mismatches == 0

    def test_anonymity(self):
        """Potentials depend on the congestion counts only."""
        rng = np.random.default_rng(11)
        g = random_game(rng, n_users=4, n_channels=3)
        a = (1, 2, 2, 3)
        b = (2, 1, 3, 2)  # same counts, relabeled users
        assert rosenthal_potential(g, a) == rosenthal_potential(g, b)
        assert ordinal_potential(g, a) == ordinal_potential(g, b)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def mixed_game(seed, n_users=(2, 6), n_channels=(2, 5), contention=None):
    """A random game whose users draw their exponents from three, far apart."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(*n_users)), int(rng.integers(*n_channels))
    if contention is None:
        contention = list(Contention)[int(rng.integers(2))]
    thetas = tuple(float(t) for t in rng.choice((1e-2, 0.5, 4.0), size=n))
    return rng, GameSpec(thetas=thetas, channels=random_channels(rng, m), contention=contention)


class TestCountTables:
    @given(
        seed=st.integers(0, 2**32 - 1),
        common=st.booleans(),
        contention=st.sampled_from(list(Contention)),
        payoff=st.sampled_from(["capacity", "surrogate"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_entries_are_the_payoff_of_a_user_of_the_class(
        self, seed, common, contention, payoff, data
    ):
        rng, g = mixed_game(seed, contention=contention)
        if common:
            g = replace(g, thetas=(g.thetas[0],) * g.n_users)
        N, M = g.n_users, g.n_channels
        upto = data.draw(st.integers(1, N))
        classes, tables = count_tables(g, payoff, upto)
        order = list(dict.fromkeys(g.thetas))  # exponents by first user
        assert classes.tolist() == [order.index(t) for t in g.thetas]
        assert tables.shape == (len(order), M, upto)
        direct = utility if payoff == "capacity" else surrogate_utility
        for k in range(len(order)):
            users = np.flatnonzero(classes == k)
            for m in range(1, M + 1):
                for c in range(1, upto + 1):
                    # a random user of the class and c - 1 others on channel m,
                    # the rest on another channel
                    user = int(rng.choice(users))
                    others = rng.permutation([u for u in range(N) if u != user])
                    profile = [m % M + 1] * N
                    for u in [user, *others[: c - 1]]:
                        profile[u] = m
                    want = direct(g, profile, user)
                    assert bits(tables[k, m - 1, c - 1]) == bits(want)

    def test_refuses_unknown_payoffs_and_widths(self):
        g = twin_channel_game()
        with pytest.raises(ValueError, match="unknown payoff 'rate'"):
            count_tables(g, "rate", 2)
        for upto in (0, 3):
            with pytest.raises(ValueError, match=r"upto must be in 1\.\.2"):
                count_tables(g, "capacity", upto)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_profile_utilities_are_utility(self, seed):
        rng, g = mixed_game(seed, n_channels=(1, 4))
        profiles = rng.integers(1, g.n_channels + 1, (int(rng.integers(1, 6)), g.n_users))
        got = profile_utilities(g, profiles)
        want = [[utility(g, p, u) for u in range(g.n_users)] for p in profiles]
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(total_utility(g, profiles), [sum(row) for row in want])


def deviation_scan(g, profile, tol=TIE_TOL):
    """(user, channel, gain) of the first improving move, by utility(), or None."""
    profile = tuple(profile)
    for n in range(g.n_users):
        base = utility(g, profile, n)
        for b in range(1, g.n_channels + 1):
            moved = profile[:n] + (b,) + profile[n + 1 :]
            if b != profile[n] and utility(g, moved, n) > base + tol:
                return n, b, utility(g, moved, n) - base
    return None


class TestMixedExponents:
    """is_nash and best_response_path on games whose users differ in
    exponent, against deviation scans by utility()."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_is_nash_matches_a_deviation_scan(self, seed):
        rng, g = mixed_game(seed, n_users=(2, 5), n_channels=(2, 4))
        for prof in itertools.product(range(1, g.n_channels + 1), repeat=g.n_users):
            got, want = is_nash(g, prof), deviation_scan(g, prof)
            assert got.is_nash == (want is None)
            if want is not None:
                assert (got.user, got.better_channel) == want[:2]
                assert got.gain == pytest.approx(want[2], abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_best_response_path_ends_where_no_user_improves(self, seed):
        rng, g = mixed_game(seed)
        start = tuple(int(a) for a in rng.integers(1, g.n_channels + 1, g.n_users))
        res = best_response_path(g, start, rng, max_steps=50 * g.n_users * g.n_channels)
        assert deviation_scan(g, res.profile) is None

    def test_classes_keep_their_own_preferences(self):
        # a steady channel against a bursty one of twice the mean: the patient
        # user takes the bursty one and the strict user the steady one, so
        # swapping the two classes' tables would turn the equilibrium round
        channels = (
            ChannelSpec(id=1, rates=(2.0,), probs=(1.0,)),
            ChannelSpec(id=2, rates=(0.0, 8.0), probs=(0.5, 0.5)),
        )
        g = GameSpec(thetas=(0.01, 4.0), channels=channels)
        assert is_nash(g, (2, 1)).is_nash
        res = is_nash(g, (1, 2))
        assert (res.is_nash, res.user, res.better_channel) == (False, 1, 1)
        path = best_response_path(g, (1, 2), np.random.default_rng(0), max_steps=4)
        assert path.profile == (2, 1)
        assert enumerate_nash(g) == [(2, 1)]


class TestNash:
    def test_twin_channel_equilibria(self):
        g = twin_channel_game()
        assert is_nash(g, (1, 2)).is_nash
        assert is_nash(g, (2, 1)).is_nash
        res = is_nash(g, (1, 1))
        assert not res.is_nash
        assert res.user == 0
        assert res.better_channel == 2
        # witness gain agrees with the utility op
        moved = (2, 1)
        assert res.gain == pytest.approx(
            utility(g, moved, 0) - utility(g, (1, 1), 0), abs=1e-12
        )

    def test_enumerate_lexicographic(self):
        g = twin_channel_game()
        assert enumerate_nash(g) == [(1, 2), (2, 1)]

    def test_enumerate_refuses_huge_spaces(self):
        g = GameSpec(
            thetas=(0.1,) * 30,
            channels=(
                TWO_STATE,
                ChannelSpec(id=2, rates=(0.0, 2.0), probs=(0.5, 0.5)),
            ),
        )
        with pytest.raises(ValueError, match="beyond the limit"):
            enumerate_nash(g)

    def test_refuses_too_many_profiles_without_overflow(self):
        """1100 users on twin channels: C(1100, 550) > 1e308 equilibria."""
        g = GameSpec(thetas=(0.1,) * 1100, channels=twin_channel_game().channels)
        with pytest.raises(ValueError, match="more than 1000000 profiles"):
            enumerate_nash(g)

    def test_refuses_too_many_states_before_scanning(self):
        """Ten users with distinct exponents: 2**10 states fit, 5**10 do not."""
        channels = tuple(
            ChannelSpec(id=m, rates=(0.0, 2.0), probs=(0.5, 0.5)) for m in range(1, 6)
        )
        g = GameSpec(thetas=tuple(0.1 * k for k in range(1, 11)), channels=channels)
        with pytest.raises(ValueError, match="9765625 occupancy states.*beyond the limit"):
            enumerate_nash(g)

    def test_classes_of_users_expand_to_every_profile(self):
        """Two exponent classes on twin channels: each user alone or paired."""
        g = GameSpec(
            thetas=(0.1, 1.0, 0.1, 1.0), channels=twin_channel_game().channels
        )
        got = enumerate_nash(g)
        assert got == sorted(got)
        assert (1, 1, 2, 2) in got and (1, 2, 2, 1) in got
        for prof in got:
            assert is_nash(g, prof).is_nash

    def test_tie_tolerance_keeps_equal_payoffs_stable(self):
        """Identical channels never offer a strictly improving swap between
        symmetric slots."""
        g = twin_channel_game()
        assert is_nash(g, (1, 2), tol=1e-12).is_nash

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_enumerated_profiles_have_no_improving_deviation(self, seed):
        rng = np.random.default_rng(seed)
        g = random_game(rng)
        for prof in enumerate_nash(g):
            for n in range(g.n_users):
                base = utility(g, prof, n)
                for b in range(1, g.n_channels + 1):
                    if b == prof[n]:
                        continue
                    moved = prof[:n] + (b,) + prof[n + 1 :]
                    assert utility(g, moved, n) <= base + 1e-12


class TestOccupancy:
    def test_occupancy_vectors(self):
        vecs = occupancy_vectors(3, 2)
        assert vecs.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]
        assert occupancy_vectors(8, 5).shape == (math.comb(12, 4), 5)
        assert occupancy_vectors(4, 1).tolist() == [[4]]
        assert occupancy_vectors(300, 2).dtype == np.uint16
        big = occupancy_vectors(7, 4)
        assert big.tolist() == sorted(big.tolist())
        assert len({tuple(r) for r in big.tolist()}) == len(big) == math.comb(10, 3)
        assert (occupancy_vectors(6, 4).sum(axis=1) == 6).all()

    def test_potential_maximizer_takes_the_first_of_tied_profiles(self):
        g = twin_channel_game()
        assert potential_maximizer(g) == (1, 2)

    def test_potential_maximizer_needs_common_exponent(self):
        g = GameSpec(thetas=(0.1, 0.2), channels=(TWO_STATE,))
        with pytest.raises(ValueError, match="common QoS exponent"):
            potential_maximizer(g)

    def test_total_utility_takes_no_profiles_and_rejects_bad_ones(self):
        g = twin_channel_game()
        assert total_utility(g, []).tolist() == []
        with pytest.raises(ValueError, match="channel ids"):
            total_utility(g, [(1, 3)])
        # a profile of the wrong length is not read as several profiles
        for bad in ([(1, 2, 1, 2)], [(1,)], [1, 2]):
            with pytest.raises(ValueError, match="must list 2 channel ids"):
                total_utility(g, bad)


class TestBestResponsePath:
    def test_reaches_equilibrium_from_crowded_start(self):
        g = twin_channel_game()
        rng = np.random.default_rng(0)
        res = best_response_path(g, (1, 1), rng, max_steps=100)
        assert is_nash(g, res.profile).is_nash
        assert res.steps == 1

    def test_zero_steps_at_equilibrium(self):
        g = twin_channel_game()
        rng = np.random.default_rng(0)
        res = best_response_path(g, (1, 2), rng, max_steps=10)
        assert res.profile == (1, 2)
        assert res.steps == 0

    def test_refuses_a_negative_step_limit(self):
        g = twin_channel_game()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="max_steps must be >= 0, got -1"):
            best_response_path(g, (1, 2), rng, max_steps=-1)

    def test_limit_error_carries_profile(self):
        g = twin_channel_game()
        rng = np.random.default_rng(0)
        with pytest.raises(BestResponseLimitError) as exc:
            best_response_path(g, (1, 1), rng, max_steps=0)
        assert exc.value.profile == (1, 1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_terminates_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        g = random_game(rng)
        start = tuple(int(a) for a in rng.integers(1, g.n_channels + 1, g.n_users))
        res = best_response_path(
            g, start, rng, max_steps=50 * g.n_users * g.n_channels
        )
        assert is_nash(g, res.profile).is_nash


class TestVerifyPotentials:
    def test_fair_share_report_is_clean(self):
        rng = np.random.default_rng(42)
        g = random_game(rng)
        rep = verify_potentials(g)
        assert rep.exhaustive
        assert rep.epg_max_abs_error <= 1e-9
        assert rep.opg_sign_disagreements == 0
        assert rep.opg_zero_mismatches == 0
        assert rep.deviations_checked > 0

    def test_heterogeneous_skips_ordinal_check(self):
        g = GameSpec(
            thetas=(0.1, 0.2),
            channels=(
                TWO_STATE,
                ChannelSpec(id=2, rates=(0.0, 2.0), probs=(0.5, 0.5)),
            ),
        )
        rep = verify_potentials(g)
        assert rep.opg_sign_disagreements is None
        assert rep.opg_zero_mismatches is None
        assert rep.epg_max_abs_error <= 1e-9

    def test_exhaustive_on_large_games(self):
        rng = np.random.default_rng(1)
        g = random_game(rng, n_users=10, n_channels=4)
        rep = verify_potentials(g)
        assert rep.exhaustive
        assert rep.deviations_checked == 4**10 * 10 * 3
        assert rep.epg_max_abs_error <= 1e-9
        assert rep.opg_sign_disagreements == 0

    def test_counts_stay_exact_past_int64(self):
        g = GameSpec(thetas=(1.0,) * 70, channels=twin_channel_game().channels)
        rep = verify_potentials(g)
        assert rep.deviations_checked == 2**70 * 70
        assert rep.opg_sign_disagreements == 0
        assert rep.opg_zero_mismatches == 0

    def test_refuses_beyond_the_state_limit(self):
        # C(204, 4) = 69,533,301 occupancy states
        g = random_game(np.random.default_rng(0), n_users=200, n_channels=5)
        with pytest.raises(ValueError, match="beyond the limit"):
            verify_potentials(g)

    def test_slot_winner_is_exploratory_but_reported(self):
        """The ordinal potential mirrors fair sharing; a slot-winner game still
        gets a report (its disagreement count is informational)."""
        rng = np.random.default_rng(5)
        g = random_game(rng, contention=Contention.SLOT_WINNER)
        rep = verify_potentials(g)
        assert rep.epg_max_abs_error <= 1e-9  # expected shares are model-free
        assert rep.opg_sign_disagreements is not None


ZERO_RATE = (0.0,), (1.0,)
TWO_STATE_2 = ChannelSpec(id=2, rates=(0.0, 2.0), probs=(0.5, 0.5))

# two fair-share users at theta 800, where phi of one user per channel underflows to 0
UNDERFLOWING_PHI = GameSpec(
    thetas=(800.0, 800.0),
    channels=(
        ChannelSpec(id=1, rates=(1.0, 2.0), probs=(0.5, 0.5)),
        ChannelSpec(id=2, rates=(1.0, 3.0), probs=(0.5, 0.5)),
    ),
)


@st.composite
def analysis_games(draw):
    """Games with N in [1, 5] and M in [1, 4], both contention models, common
    or mixed exponents up to 800, and some channels with no positive rate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    channels = list(random_channels(rng, m))
    for k in draw(st.sets(st.integers(0, m - 1))):
        channels[k] = ChannelSpec(k + 1, *ZERO_RATE)
    exponents = st.sampled_from((1e-2, 0.5, 4.0, 800.0))
    if draw(st.booleans()):
        thetas = (draw(exponents),) * n
    else:
        thetas = tuple(draw(st.lists(exponents, min_size=n, max_size=n)))
    contention = draw(st.sampled_from(list(Contention)))
    return GameSpec(thetas=thetas, channels=tuple(channels), contention=contention)


class TestAnalyze:
    """analyze, the one pass under the analyze command, against the four
    public calls it stands for, floats bit for bit."""

    @given(analysis_games())
    @example(UNDERFLOWING_PHI)
    @example(replace(UNDERFLOWING_PHI, contention=Contention.SLOT_WINNER))
    @example(GameSpec(thetas=(0.5,) * 3, channels=(ChannelSpec(1, *ZERO_RATE),)))
    @example(GameSpec(thetas=(0.5,), channels=(ChannelSpec(1, *ZERO_RATE), TWO_STATE_2)))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_public_calls(self, g):
        profiles, aggregates, report, maximizer = analyze(g)
        want = enumerate_nash(g)
        assert want == brute_force.enumerate_nash(g)
        assert profiles.shape == (len(want), g.n_users)
        assert list(map(tuple, profiles.tolist())) == want
        assert np.array_equal(bits(aggregates), bits(total_utility(g, want)))
        want_report = verify_potentials(g)
        assert report == want_report
        assert bits(report.epg_max_abs_error) == bits(want_report.epg_max_abs_error)
        if g.homogeneous_theta() is None:
            assert maximizer is None
        else:
            assert maximizer == potential_maximizer(g)

    def test_zero_rate_channels_have_positive_zero_aggregates(self):
        channels = (ChannelSpec(1, *ZERO_RATE), ChannelSpec(2, *ZERO_RATE))
        g = GameSpec(thetas=(0.5,) * 3, channels=channels, contention=Contention.SLOT_WINNER)
        profiles, aggregates, _, maximizer = analyze(g)
        assert len(profiles) == 2**3 and maximizer == (1, 1, 1)
        assert bits(aggregates).tolist() == [0] * 8
