"""The channel-major engine against its former row-major slot step.

`row_major_step.run_block` replays a block of trials on the engine's
streams with strategies, estimates and one-hot kept as [T, N, M]. Moving
channels to the leading axis changes no running sum, maximum or element-wise
step, and numpy's reduction of a contiguous last axis adds up to seven
values in order, so up to M = 7 every trace is equal bit for bit. From
M = 8 on numpy sums a contiguous row pairwise, so p and q may differ in the
last bits there, and the actions must still agree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import row_major_step
from conftest import random_game
from specgame.game import Contention
from specgame.simulator import SimConfig, run_experiment

TOL = 1e-12


@st.composite
def configs(draw, channels):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = random_game(
        rng,
        n_users=draw(st.integers(1, 9)),
        n_channels=draw(channels),
        theta_choices=(1e-3, 1e-2, 1e-1, 1.0),
        contention=draw(st.sampled_from(list(Contention))),
    )
    return SimConfig(
        game=game,
        iterations=draw(st.integers(1, 150)),
        trials=draw(st.integers(1, 4)),
        base_seed=draw(st.integers(0, 2**64 - 1)),
        algorithm=draw(st.sampled_from(["learn", "sla", "random"])),
        eta=draw(st.sampled_from([0.1, 0.5, 2.0])),
        lam=draw(st.sampled_from([None, 0.3, 1.0])),
        sla_gain=draw(st.sampled_from([0.08, 0.5])),
        random_per_slot=True,
        collect_traces=True,
    )


def traces(config):
    """The engine's traces of every trial, stacked as [slots, T, ...]."""
    results = run_experiment(config).results
    return {
        key: np.stack([getattr(r.traces, key) for r in results], axis=1)
        for key in ("p", "q", "actions", "payoffs")
    }


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(configs(st.integers(1, 7)))
def test_up_to_seven_channels_every_trace_is_bit_identical(config):
    got = traces(config)
    want = row_major_step.run_block(config, range(config.trials))
    assert np.array_equal(got["actions"], want["actions"])
    for key in ("p", "q", "payoffs"):
        assert np.array_equal(bits(got[key]), bits(want[key])), key


@settings(max_examples=60, deadline=None)
@given(configs(st.integers(8, 10)))
def test_from_eight_channels_actions_agree_and_strategies_round_alike(config):
    got = traces(config)
    want = row_major_step.run_block(config, range(config.trials))
    assert np.array_equal(got["actions"], want["actions"])
    assert np.array_equal(bits(got["payoffs"]), bits(want["payoffs"]))
    for key in ("p", "q"):
        assert np.abs(got[key] - want[key]).max() <= TOL, key
