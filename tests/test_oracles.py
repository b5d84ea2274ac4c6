"""Occupancy-count analysis and the Poisson-binomial field against brute force.

The oracles in brute_force.py walk all M**N profiles; the games here are
small enough for that: N in [2, 5], M in [2, 4], common or mixed QoS
exponents, both contention models. The mean-field flow is checked, bit for
bit, against the field and Euler loop it replaced, at N in [1, 9].
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_force
from conftest import random_channels
from specgame.dynamics import BLOCK_STEPS, _Field, integrate, mixed_potential, replicator_rhs
from specgame.game import (
    TIE_TOL,
    Contention,
    GameSpec,
    enumerate_nash,
    potential_maximizer,
    total_utility,
    verify_potentials,
)

CLOSE = {"rel": 1e-12, "abs": 1e-12}


def small_game(seed, common, twins=False):
    """A random game; with `common` False, users draw one of three exponents.

    With `twins`, every channel copies the first, so payoffs tie exactly.
    """
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    contention = (Contention.FAIR_SHARE, Contention.SLOT_WINNER)[int(rng.integers(2))]
    choices = (1e-2, 1e-1, 1.0)
    if common:
        thetas = (float(rng.choice(choices)),) * n
    else:
        thetas = tuple(float(t) for t in rng.choice(choices, size=n))
    channels = random_channels(rng, m)
    if twins:
        channels = tuple(replace(channels[0], id=k + 1) for k in range(m))
    return rng, GameSpec(thetas=thetas, channels=channels, contention=contention)


games = st.tuples(st.integers(0, 2**32 - 1), st.booleans())


@given(
    games,
    st.booleans(),
    st.sampled_from(("capacity", "surrogate")),
    st.sampled_from((TIE_TOL, 0.0)),
)
@settings(max_examples=80, deadline=None)
def test_equilibria_match_the_profile_scan(case, twins, payoff, tol):
    _, g = small_game(*case, twins=twins)
    want = brute_force.enumerate_nash(g, tol=tol, payoff=payoff)
    assert enumerate_nash(g, tol=tol, payoff=payoff) == want


@given(games)
@settings(max_examples=40, deadline=None)
def test_aggregates_match_the_utility_sums(case):
    _, g = small_game(*case)
    profiles = list(brute_force.all_profiles(g))
    # the same table values added in the same order: equal bit for bit
    assert total_utility(g, profiles).tolist() == [
        brute_force.total_utility(g, p) for p in profiles
    ]


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_potential_maximizer_matches_the_profile_scan(seed, twins):
    _, g = small_game(seed, common=True, twins=twins)
    # the same potential values, so ties resolve to the same first profile
    assert potential_maximizer(g) == brute_force.potential_maximizer(g)


@given(games, st.booleans(), st.sampled_from((TIE_TOL, 0.0)))
@settings(max_examples=80, deadline=None)
def test_potential_report_matches_the_profile_scan(case, twins, zero_tol):
    _, g = small_game(*case, twins=twins)
    got = verify_potentials(g, zero_tol=zero_tol)
    want = brute_force.verify_potentials(g, zero_tol=zero_tol)
    assert got.exhaustive and want.exhaustive
    assert got.deviations_checked == want.deviations_checked
    assert got.opg_sign_disagreements == want.opg_sign_disagreements
    assert got.opg_zero_mismatches == want.opg_zero_mismatches
    assert got.epg_max_abs_error == pytest.approx(want.epg_max_abs_error, rel=0, abs=1e-12)


@given(games)
@settings(max_examples=60, deadline=None)
def test_field_matches_the_profile_sum(case):
    rng, g = small_game(*case)
    p = rng.dirichlet(np.ones(g.n_channels), size=g.n_users)
    oracle = brute_force.FieldEvaluator(g)
    omega, potential = _Field(g).evaluate(p)
    np.testing.assert_allclose(omega, oracle.omegas(p), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        replicator_rhs(g, p), oracle.replicator_rhs(p), rtol=1e-12, atol=1e-12
    )
    if g.homogeneous_theta() is None:
        assert np.isnan(potential)
    else:
        want = oracle.mean_potential(p)
        assert potential == pytest.approx(want, **CLOSE)
        assert mixed_potential(g, p) == pytest.approx(want, **CLOSE)


# The mean-field flow against the [N, M, N] field and Euler loop it replaced
# (brute_force.ReferenceField and brute_force.integrate): equal bit for bit.


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def assert_same_bits(got, want):
    assert np.array_equal(bits(got), bits(want))


@st.composite
def flow_cases(draw):
    """A game with N in [1, 9] and M in [1, 5], its rates spread or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    choices = (1e-2, 1e-1, 1.0)
    if draw(st.booleans()):
        thetas = (float(rng.choice(choices)),) * n
    else:
        thetas = tuple(float(t) for t in rng.choice(choices, size=n))
    contention = draw(st.sampled_from((Contention.FAIR_SHARE, Contention.SLOT_WINNER)))
    channels = random_channels(rng, m)
    if draw(st.booleans()):
        channels = spread(channels)
    game = GameSpec(thetas=thetas, channels=channels, contention=contention)
    return rng, game


def spread(channels, factor=5.0):
    """The channels with rates scaled up: payoff gaps where dt = 0.5 overshoots zero."""
    return tuple(replace(ch, rates=tuple(factor * r for r in ch.rates)) for ch in channels)


def draw_start(rng, game, pure=0.2, zero=0.2):
    """Dirichlet rows; some rows pure, some entries zero."""
    n, m = game.n_users, game.n_channels
    p = rng.dirichlet(np.ones(m), size=n)
    p[rng.random((n, m)) < zero] = 0.0
    pure_rows = rng.random(n) < pure
    p[pure_rows] = np.eye(m)[rng.integers(0, m, size=n)][pure_rows]
    empty = p.sum(axis=1) == 0.0
    p[empty] = np.eye(m)[0]
    return p / p.sum(axis=1, keepdims=True)


@given(flow_cases())
@settings(max_examples=120, deadline=None)
def test_field_matches_the_reference_bit_for_bit(case):
    rng, g = case
    p = draw_start(rng, g)
    omega, potential = _Field(g).evaluate(p)
    want_omega, want_potential = brute_force.ReferenceField(g).evaluate(p)
    assert_same_bits(omega, want_omega)
    assert_same_bits(potential, want_potential)


@given(flow_cases())
@settings(max_examples=60, deadline=None)
def test_one_field_follows_a_sequence_of_profiles(case):
    rng, g = case
    field = _Field(g)
    for _ in range(4):
        p = draw_start(rng, g)
        omega, potential = field.evaluate(p)
        want_omega, want_potential = brute_force.ReferenceField(g).evaluate(p)
        assert_same_bits(omega, want_omega)
        assert_same_bits(potential, want_potential)


@given(flow_cases())
@settings(max_examples=40, deadline=None)
def test_returned_arrays_are_fresh(case):
    rng, g = case
    field = _Field(g)
    p, q = draw_start(rng, g), draw_start(rng, g)
    # a later call with the same batch size leaves earlier results alone
    omega, _ = field.evaluate(p)
    kept = omega.copy()
    field.evaluate(q)
    assert_same_bits(omega, kept)
    pair = np.stack([p, q])
    batch_omega, batch_potential = field.evaluate(pair)
    kept_omega, kept_potential = batch_omega.copy(), batch_potential.copy()
    field.evaluate(pair[::-1])
    assert_same_bits(batch_omega, kept_omega)
    assert_same_bits(batch_potential, kept_potential)
    # and writing into a result does not reach the next call
    omega_q, potential_q = field.evaluate(q)
    for arr in (omega, omega_q, batch_omega, batch_potential):
        arr[...] = np.nan
    want_omega, want_potential = brute_force.ReferenceField(g).evaluate(q)
    omega_q, potential_q = field.evaluate(q)
    assert_same_bits(omega_q, want_omega)
    assert_same_bits(potential_q, want_potential)


@given(flow_cases(), st.sampled_from((0.02, 0.1, 0.5)))
@settings(max_examples=60, deadline=None)
def test_trajectory_matches_the_reference_bit_for_bit(case, dt):
    rng, g = case
    start = draw_start(rng, g)
    traj = integrate(g, start, dt=dt, steps=25)
    want = brute_force.integrate(g, start, dt=dt, steps=25)
    assert traj.strategies.shape == want.strategies.shape
    assert_same_bits(traj.strategies, want.strategies)
    assert_same_bits(traj.potentials, want.potentials)
    assert_same_bits(traj.max_rhs, want.max_rhs)


@given(flow_cases(), st.sampled_from((1, 2, 7)), st.sampled_from((0.02, 0.5)))
@settings(max_examples=45, deadline=None)
def test_a_batch_equals_its_starts_run_alone(case, size, dt):
    rng, g = case
    starts = np.stack([draw_start(rng, g) for _ in range(size)])
    batch = integrate(g, starts, dt=dt, steps=20)
    assert batch.strategies.shape == (21, size, g.n_users, g.n_channels)
    assert batch.potentials.shape == batch.max_rhs.shape == (21, size)
    for b, start in enumerate(starts):
        alone = integrate(g, start, dt=dt, steps=20)
        assert_same_bits(batch.strategies[:, b], alone.strategies)
        assert_same_bits(batch.potentials[:, b], alone.potentials)
        assert_same_bits(batch.max_rhs[:, b], alone.max_rhs)
        assert_same_bits(batch.final[b], alone.final)


# 2 * BLOCK_STEPS + 3 steps: diagnostics over two whole blocks and a partial one
ACROSS_BLOCKS = 2 * BLOCK_STEPS + 3


def assert_same_flow(got_path, got_potentials, got_max_rhs, want):
    assert_same_bits(got_path, want.strategies)
    assert_same_bits(got_potentials, want.potentials)
    assert_same_bits(got_max_rhs, want.max_rhs)


@given(flow_cases(), st.sampled_from((1, 3)), st.sampled_from((0.02, 0.5)))
@settings(max_examples=30, deadline=None)
def test_a_flow_across_blocks_matches_the_reference(case, size, dt):
    rng, g = case
    starts = np.stack([draw_start(rng, g) for _ in range(size)])
    single = integrate(g, starts[0], dt=dt, steps=ACROSS_BLOCKS)
    batch = integrate(g, starts, dt=dt, steps=ACROSS_BLOCKS)
    for b, start in enumerate(starts):
        want = brute_force.integrate(g, start, dt=dt, steps=ACROSS_BLOCKS)
        if b == 0:
            assert_same_flow(single.strategies, single.potentials, single.max_rhs, want)
        assert_same_flow(
            batch.strategies[:, b], batch.potentials[:, b], batch.max_rhs[:, b], want
        )


@pytest.mark.parametrize("steps", [40, ACROSS_BLOCKS])
def test_the_clamp_fires_and_the_flow_still_matches(steps):
    # low exponent, spread-out rates and dt = 0.5: Euler overshoots below zero
    rng = np.random.default_rng(3)
    g = GameSpec(thetas=(1e-2,) * 4, channels=spread(random_channels(rng, 3)))
    start = np.full((4, 3), 1.0 / 3.0)
    want = brute_force.integrate(g, start, dt=0.5, steps=steps)
    path = want.strategies
    clamped = (path[1:] == 0.0) & (path[:-1] > 0.0)
    assert clamped.any()
    traj = integrate(g, start, dt=0.5, steps=steps)
    assert_same_flow(traj.strategies, traj.potentials, traj.max_rhs, want)
    batch = integrate(g, np.stack([path[7], start]), dt=0.5, steps=steps)
    assert_same_flow(batch.strategies[:, 1], batch.potentials[:, 1], batch.max_rhs[:, 1], want)

