import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_game
from specgame.channels import ChannelSpec
from specgame.capacity import approx_utility
from specgame.dynamics import (
    IntegrationDivergedError,
    Trajectory,
    _Field,
    action_value,
    integrate,
    is_stationary,
    mixed_potential,
    replicator_rhs,
    vertex_profile,
)
from specgame.game import (
    GameSpec,
    enumerate_nash,
    shared_rate_distribution,
    surrogate_potential,
    surrogate_utility,
)


def twin_channel_game(theta=1.0):
    """Two identical {0, 2} channels, two users."""
    return GameSpec(
        thetas=(theta, theta),
        channels=(
            ChannelSpec(id=1, rates=(0.0, 2.0), probs=(0.5, 0.5)),
            ChannelSpec(id=2, rates=(0.0, 2.0), probs=(0.5, 0.5)),
        ),
    )


def interior_start(rng, n, m):
    p = rng.dirichlet(np.ones(m), size=n) * 0.9 + 0.05
    return p / p.sum(axis=1, keepdims=True)


class TestActionValue:
    def test_pure_opponent_recovers_pure_utility(self):
        g = twin_channel_game()
        v_shared = action_value(g, 0, 1, vertex_profile(g, (2, 1)))
        v_solo = action_value(g, 0, 1, vertex_profile(g, (2, 2)))
        assert v_shared == pytest.approx(surrogate_utility(g, (1, 1), 0), abs=1e-15)
        assert v_solo == pytest.approx(surrogate_utility(g, (1, 2), 0), abs=1e-15)

    def test_uniform_opponent_averages(self):
        # half the weight shares the channel, half has it solo
        g = twin_channel_game()
        shared = surrogate_utility(g, (1, 1), 0)
        solo = surrogate_utility(g, (1, 2), 0)
        got = action_value(g, 0, 1, np.full((2, 2), 0.5))
        assert got == pytest.approx((shared + solo) / 2, abs=1e-15)
        assert got == pytest.approx(0.3741963188979862, abs=1e-15)

    def test_mixed_opponent_weights(self):
        g = twin_channel_game()
        P = np.array([[0.5, 0.5], [0.6, 0.4]])
        got = action_value(g, 0, 1, P)
        assert got == pytest.approx(0.3625691110012448, abs=1e-15)

    def test_matches_count_distribution_oracle(self):
        # independent check: condition on how many others land on the channel
        rng = np.random.default_rng(5)
        g = random_game(rng, n_users=4, n_channels=3, theta_choices=(0.1,))
        P = rng.dirichlet(np.ones(3), size=4)
        for user in range(4):
            theta = g.thetas[user]
            for channel in (1, 2, 3):
                counts = np.array([1.0])
                for k in range(4):
                    if k == user:
                        continue
                    q = P[k, channel - 1]
                    nxt = np.zeros(len(counts) + 1)
                    nxt[:-1] += counts * (1 - q)
                    nxt[1:] += counts * q
                    counts = nxt
                spec = g.channels[channel - 1]
                by_count = [
                    approx_utility(
                        shared_rate_distribution(spec, j + 1, g.contention), theta
                    )
                    for j in range(4)
                ]
                want = float(np.dot(counts, by_count))
                got = action_value(g, user, channel, P)
                assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_bad_channel(self):
        g = twin_channel_game()
        with pytest.raises(ValueError, match="channel must be in 1..2"):
            action_value(g, 0, 3, np.full((2, 2), 0.5))

    def test_rejects_bad_shape(self):
        g = twin_channel_game()
        with pytest.raises(ValueError, match="2 x 2 strategy array"):
            action_value(g, 0, 1, np.full((3, 2), 0.5))

    def test_rejects_off_simplex(self):
        g = twin_channel_game()
        with pytest.raises(ValueError, match="off the simplex"):
            action_value(g, 0, 1, np.full((2, 2), 0.6))


class TestReplicatorRhs:
    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_game(rng)
            P = rng.dirichlet(np.ones(g.n_channels), size=g.n_users)
            rhs = replicator_rhs(g, P)
            assert np.abs(rhs.sum(axis=1)).max() < 1e-12

    def test_vertices_are_exactly_stationary(self):
        # mass 0 kills the off rows, mass 1 makes omega equal its own average
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_game(rng)
            prof = tuple(
                int(a) for a in rng.integers(1, g.n_channels + 1, size=g.n_users)
            )
            rhs = replicator_rhs(g, vertex_profile(g, prof))
            assert np.all(rhs == 0.0)
            assert is_stationary(g, vertex_profile(g, prof), tol=0.0)

    def test_vertex_profile_checks_the_profile(self):
        g = twin_channel_game()
        assert vertex_profile(g, (2, 1)).tolist() == [[0.0, 1.0], [1.0, 0.0]]
        # channel 0 would wrap round to the last channel
        with pytest.raises(ValueError, match=r"channel ids in 1\.\.2"):
            vertex_profile(g, (0, 1))
        with pytest.raises(ValueError, match="1 entries for 2 users"):
            vertex_profile(g, (1,))

    def test_symmetric_uniform_point_is_stationary(self):
        g = twin_channel_game()
        assert np.all(replicator_rhs(g, np.full((2, 2), 0.5)) == 0.0)

    def test_interior_point_moves_toward_better_channel(self):
        g = twin_channel_game()
        P = np.array([[0.7, 0.3], [0.2, 0.8]])
        rhs = replicator_rhs(g, P)
        # each user keeps drifting away from the crowd
        assert rhs[0, 0] > 0.0
        assert rhs[1, 1] > 0.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_nash_vertex_is_stationary(self, seed):
        rng = np.random.default_rng(seed)
        g = random_game(rng, n_users=3, n_channels=2)
        for prof in enumerate_nash(g, payoff="surrogate"):
            assert is_stationary(g, vertex_profile(g, prof), tol=0.0)


class TestMixedPotential:
    def test_vertex_equals_pure_potential(self):
        rng = np.random.default_rng(21)
        g = random_game(rng, theta_choices=(0.1,))
        prof = tuple(int(a) for a in rng.integers(1, g.n_channels + 1, size=g.n_users))
        got = mixed_potential(g, vertex_profile(g, prof))
        assert got == pytest.approx(surrogate_potential(g, prof), abs=1e-12)

    def test_uniform_point_averages_profiles(self):
        g = twin_channel_game()
        want = np.mean(
            [surrogate_potential(g, p) for p in [(1, 1), (1, 2), (2, 1), (2, 2)]]
        )
        assert mixed_potential(g, np.full((2, 2), 0.5)) == pytest.approx(
            -0.1934713227203202, abs=1e-15
        )
        assert mixed_potential(g, np.full((2, 2), 0.5)) == pytest.approx(
            want, abs=1e-15
        )

    def test_multilinear_in_each_row(self):
        rng = np.random.default_rng(22)
        g = random_game(rng, theta_choices=(0.1,))
        n, m = g.n_users, g.n_channels
        A = rng.dirichlet(np.ones(m), size=n)
        B = A.copy()
        B[0] = rng.dirichlet(np.ones(m))
        lam = 0.37
        C = A.copy()
        C[0] = lam * A[0] + (1 - lam) * B[0]
        want = lam * mixed_potential(g, A) + (1 - lam) * mixed_potential(g, B)
        assert mixed_potential(g, C) == pytest.approx(want, abs=1e-12)

    def test_heterogeneous_exponents_rejected(self):
        g = GameSpec(
            thetas=(0.1, 0.2),
            channels=(
                ChannelSpec(id=1, rates=(0.0, 2.0), probs=(0.5, 0.5)),
                ChannelSpec(id=2, rates=(0.0, 2.0), probs=(0.5, 0.5)),
            ),
        )
        with pytest.raises(ValueError, match="common QoS exponent"):
            mixed_potential(g, np.full((2, 2), 0.5))


class TestIntegrate:
    def test_rejects_bad_dt(self):
        g = twin_channel_game()
        P = np.full((2, 2), 0.5)
        for dt in (0.0, -0.1, 0.6):
            with pytest.raises(ValueError, match="dt must be in"):
                integrate(g, P, dt=dt, steps=1)

    def test_zero_steps_returns_snapshot(self):
        g = twin_channel_game()
        P = np.array([[0.7, 0.3], [0.2, 0.8]])
        traj = integrate(g, P, dt=0.1, steps=0)
        assert traj.strategies.shape == (1, 2, 2)
        assert np.array_equal(traj.final, P)

    def test_shapes_and_final(self):
        g = twin_channel_game()
        traj = integrate(g, np.array([[0.7, 0.3], [0.2, 0.8]]), dt=0.1, steps=50)
        assert traj.strategies.shape == (51, 2, 2)
        assert traj.potentials.shape == (51,)
        assert traj.max_rhs.shape == (51,)
        assert np.array_equal(traj.final, traj.strategies[-1])

    def test_stays_on_simplex(self):
        g = twin_channel_game()
        traj = integrate(g, np.array([[0.7, 0.3], [0.2, 0.8]]), dt=0.4, steps=200)
        sums = traj.strategies.sum(axis=2)
        assert np.abs(sums - 1.0).max() < 1e-12
        assert traj.strategies.min() >= 0.0

    def test_vertex_start_stays_put(self):
        g = twin_channel_game()
        V = vertex_profile(g, (1, 2))
        traj = integrate(g, V, dt=0.2, steps=20)
        assert np.all(traj.strategies == V[None])
        assert np.all(traj.max_rhs == 0.0)

    def test_potential_recorded_and_monotone(self):
        g = twin_channel_game()
        traj = integrate(g, np.array([[0.7, 0.3], [0.2, 0.8]]), dt=0.1, steps=50)
        assert traj.potentials[0] == pytest.approx(-0.1795186732442304, abs=1e-15)
        assert np.all(np.diff(traj.potentials) >= -1e-12)

    def test_heterogeneous_game_reports_nan_potential(self):
        g = GameSpec(
            thetas=(0.1, 0.2),
            channels=(
                ChannelSpec(id=1, rates=(0.0, 2.0), probs=(0.5, 0.5)),
                ChannelSpec(id=2, rates=(0.0, 2.0), probs=(0.5, 0.5)),
            ),
        )
        traj = integrate(g, np.array([[0.7, 0.3], [0.2, 0.8]]), dt=0.1, steps=5)
        assert np.all(np.isnan(traj.potentials))
        assert np.all(np.isfinite(traj.max_rhs))

    def test_anticoordination_run_settles_on_split(self):
        # start tilted toward the (1, 2) split; the flow finishes the job
        g = twin_channel_game()
        traj = integrate(g, np.array([[0.7, 0.3], [0.2, 0.8]]), dt=0.2, steps=500)
        V = vertex_profile(g, (1, 2))
        tv = 0.5 * np.abs(traj.final - V).sum(axis=1).max()
        assert tv < 1e-4
        assert traj.max_rhs[-1] < 1e-5

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_potential_ascends_along_the_flow(self, seed):
        rng = np.random.default_rng(seed)
        g = random_game(rng, n_users=3, n_channels=2, theta_choices=(0.1,))
        traj = integrate(g, interior_start(rng, 3, 2), dt=0.02, steps=200)
        assert np.all(np.diff(traj.potentials) >= -1e-9)


class TestBatchedIntegrate:
    def test_shapes(self):
        g = twin_channel_game()
        starts = np.array([[[0.7, 0.3], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.4, 0.6]]])
        traj = integrate(g, starts, dt=0.1, steps=30)
        assert traj.strategies.shape == (31, 3, 2, 2)
        assert traj.potentials.shape == traj.max_rhs.shape == (31, 3)
        assert traj.final.shape == (3, 2, 2)
        assert np.array_equal(traj.strategies[0], starts)

    def test_zero_steps(self):
        g = twin_channel_game()
        starts = np.full((4, 2, 2), 0.5)
        traj = integrate(g, starts, dt=0.1, steps=0)
        assert traj.strategies.shape == (1, 4, 2, 2)
        assert np.array_equal(traj.final, starts)

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2, 2), (3, 2, 3), (1, 3, 2)])
    def test_rejects_bad_shapes(self, shape):
        g = twin_channel_game()
        with pytest.raises(ValueError, match="strategy array"):
            integrate(g, np.full(shape, 0.5), dt=0.1, steps=1)

    def test_rejects_a_start_off_the_simplex(self):
        g = twin_channel_game()
        starts = np.full((2, 2, 2), 0.5)
        starts[1, 0] = [0.9, 0.3]
        with pytest.raises(ValueError, match="off the simplex"):
            integrate(g, starts, dt=0.1, steps=1)

    def test_other_entry_points_take_one_profile(self):
        g = twin_channel_game()
        with pytest.raises(ValueError, match="2 x 2 strategy array"):
            replicator_rhs(g, np.full((3, 2, 2), 0.5))

    def test_field_evaluates_a_batch(self):
        g = twin_channel_game()
        starts = np.array([[[0.7, 0.3], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]]])
        omega, potentials = _Field(g).evaluate(starts)
        assert omega.shape == (2, 2, 2) and potentials.shape == (2,)
        for b in range(2):
            want_omega, want_potential = _Field(g).evaluate(starts[b])
            assert np.array_equal(omega[b], want_omega)
            assert potentials[b] == want_potential


class TestDivergence:
    """A field that turns non-finite at the third call."""

    @pytest.fixture
    def poisoned(self, monkeypatch):
        fill = _Field._fill
        calls = []

        def fill_then_poison(self, p, phi):
            omega = fill(self, p, phi)
            calls.append(None)
            if len(calls) == 3:
                omega[-1, 0, 0] = np.nan
            return omega

        monkeypatch.setattr(_Field, "_fill", fill_then_poison)

    def test_names_the_step(self, poisoned):
        g = twin_channel_game()
        with pytest.raises(IntegrationDivergedError, match=r"at step 3$") as err:
            integrate(g, np.array([[0.7, 0.3], [0.2, 0.8]]), dt=0.1, steps=10)
        assert err.value.step == 3
        assert err.value.trajectory is None

    def test_names_the_first_trajectory_that_diverged(self, poisoned):
        g = twin_channel_game()
        starts = np.full((3, 2, 2), 0.5)
        starts[:, 0] = [0.7, 0.3]
        with pytest.raises(IntegrationDivergedError, match="at step 3 in trajectory 2") as err:
            integrate(g, starts, dt=0.1, steps=10)
        assert (err.value.step, err.value.trajectory) == (3, 2)


def test_trajectory_final_property():
    strategies = np.zeros((3, 2, 2))
    strategies[-1] = np.eye(2)
    traj = Trajectory(
        strategies=strategies, potentials=np.zeros(3), max_rhs=np.zeros(3)
    )
    assert np.array_equal(traj.final, np.eye(2))


def test_vertex_profile_layout():
    g = twin_channel_game()
    V = vertex_profile(g, (2, 1))
    assert np.array_equal(V, np.array([[0.0, 1.0], [1.0, 0.0]]))
