"""Occupancy-count analysis and the Poisson-binomial field against brute force.

The oracles in brute_force.py walk all M**N profiles; the games here are
small enough for that: N in [2, 5], M in [2, 4], common or mixed QoS
exponents, both contention models.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_force
from conftest import random_channels
from specgame.dynamics import _Field, mixed_potential, replicator_rhs
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
