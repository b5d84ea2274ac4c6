"""The oracle against brute-force enumeration on random tiny games."""

import itertools
import math
import random

import pytest

import oracle

CONTENTIONS = (oracle.FAIR_SHARE, oracle.SLOT_WINNER)


def close(a, b, tol=1e-12):
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def random_channel(rng):
    k = rng.randint(1, 4)
    rates, r = [], 0.0
    for _ in range(k):
        r += rng.uniform(0.05, 3.0)
        rates.append(r)
    weights = [rng.random() + 1e-3 for _ in range(k)]
    total = math.fsum(weights)
    return oracle.Channel(tuple(rates), tuple(w / total for w in weights))


def random_game(rng, contention, common=True):
    n, m = rng.randint(2, 4), rng.randint(2, 3)
    if common:
        thetas = (rng.choice([1e-2, 0.3, 1.0, 5.0]),) * n
    else:
        thetas = tuple(rng.choice([1e-2, 0.3, 1.0, 5.0]) for _ in range(n))
    channels = tuple(random_channel(rng) for _ in range(m))
    return oracle.Game(channels, thetas, contention)


def random_mixture(rng, game):
    p = []
    for _ in range(game.n_users):
        w = [rng.random() for _ in range(game.n_channels)]
        p.append([x / math.fsum(w) for x in w])
    return p


def profiles(game):
    return itertools.product(range(1, game.n_channels + 1), repeat=game.n_users)


def weight(p, profile):
    return math.prod(p[n][a - 1] for n, a in enumerate(profile))


@pytest.mark.parametrize("contention", CONTENTIONS)
def test_equilibria_match_brute_force(contention):
    rng = random.Random(1)
    for _ in range(40):
        game = random_game(rng, contention)
        equilibria = [prof for prof in profiles(game) if oracle.is_equilibrium(game, prof)]
        assert oracle.nash_count(game) == len(equilibria)
        aggregates = [
            math.fsum(oracle.user_capacity(game, prof, u) for u in range(game.n_users))
            for prof in equilibria
        ]
        best = oracle.best_nash_aggregate(game)
        if aggregates:
            assert close(best, max(aggregates))
        else:
            assert best is None


@pytest.mark.parametrize("contention", CONTENTIONS)
def test_mixed_potential_matches_brute_force(contention):
    rng = random.Random(2)
    for _ in range(30):
        game = random_game(rng, contention)
        p = random_mixture(rng, game)
        expected = math.fsum(
            weight(p, prof) * oracle.surrogate_potential(game, prof) for prof in profiles(game)
        )
        assert close(oracle.mixed_potential(game, p), expected, 1e-11)


@pytest.mark.parametrize("contention", CONTENTIONS)
def test_field_matches_brute_force(contention):
    rng = random.Random(3)
    for _ in range(30):
        game = random_game(rng, contention, common=False)
        p = random_mixture(rng, game)
        omega = oracle.field(game, p)
        n_users, n_ch = game.n_users, game.n_channels
        for n in range(n_users):
            others = [k for k in range(n_users) if k != n]
            for m in range(n_ch):
                total = []
                for combo in itertools.product(range(n_ch), repeat=len(others)):
                    w = math.prod(p[k][a] for k, a in zip(others, combo))
                    c = 1 + sum(a == m for a in combo)
                    law = oracle.rate_law(game.channels[m], c, contention)
                    total.append(w * oracle.surrogate(law, game.thetas[n]))
                assert close(omega[n][m], math.fsum(total))


def test_field_at_a_vertex_has_no_motion():
    rng = random.Random(4)
    game = random_game(rng, oracle.FAIR_SHARE)
    p = [[1.0 if m == 0 else 0.0 for m in range(game.n_channels)] for _ in range(game.n_users)]
    assert oracle.replicator_max_rhs(game, p) == 0.0


@pytest.mark.parametrize("contention", CONTENTIONS)
def test_capacity_tends_to_mean_rate(contention):
    rng = random.Random(5)
    for _ in range(20):
        ch = random_channel(rng)
        for c in (1, 2, 3):
            law = oracle.rate_law(ch, c, contention)
            mean = ch.mean() / c
            gaps = [mean - oracle.effective_capacity(law, t) for t in (1e-2, 1e-4, 1e-6, 1e-8)]
            assert all(g >= -1e-12 for g in gaps)
            assert abs(gaps[-1]) < 1e-6
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_poisson_binomial_sums_to_one_and_matches_binomial():
    dist = oracle.poisson_binomial([0.3] * 5)
    assert close(math.fsum(dist), 1.0)
    for k, w in enumerate(dist):
        assert close(w, math.comb(5, k) * 0.3**k * 0.7 ** (5 - k))


def test_multinomial_counts_every_profile():
    n, m = 5, 3
    assert sum(oracle.multinomial(c) for c in oracle.occupancy_vectors(n, m)) == m**n
