import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgame.capacity import RateDistribution, approx_utility, payoff_transform
from specgame.learning import (
    LearnerState,
    SLAState,
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


class TestStepSchedule:
    def test_decaying_default(self):
        s = StepSchedule()
        assert s.lambda_at(0) == 1.0
        assert s.lambda_at(9) == pytest.approx(0.1)
        assert s.eta_at(123) == 0.1

    def test_constant_lambda(self):
        s = StepSchedule(eta=0.2, lam=0.05)
        assert s.lambda_at(0) == 0.05
        assert s.lambda_at(1000) == 0.05

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            StepSchedule(eta=0.0)
        with pytest.raises(ValueError, match="lambda"):
            StepSchedule(lam=1.5)


class TestInitState:
    def test_uniform_and_zero(self):
        state = init_state(2, 5)
        assert np.all(state.p == 0.2)
        assert np.all(state.q == 0.0)
        assert state.slot == 0

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError, match="simplex"):
            LearnerState(p=np.array([[0.6, 0.6]]), q=np.zeros((1, 2)))

    def test_rejects_negative_estimates(self):
        with pytest.raises(ValueError, match="non-negative"):
            LearnerState(p=np.array([[0.5, 0.5]]), q=np.array([[-0.1, 0.0]]))


class TestSelectActions:
    def test_frequencies_match_strategy(self):
        state = LearnerState(p=np.array([[0.7, 0.2, 0.1]]), q=np.zeros((1, 3)))
        rng = np.random.default_rng(3)
        n = 10**5
        hits = np.zeros(3)
        for _ in range(n):
            (a,) = select_actions(state, rng)
            hits[a - 1] += 1
        assert hits / n == pytest.approx([0.7, 0.2, 0.1], abs=0.01)

    def test_one_uniform_per_user_in_order(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0], [0.25, 0.75]])
        u = np.random.default_rng(8).random(3)
        got = sample_profile(p, np.random.default_rng(8))
        assert got[0] == 1 and got[1] == 2
        assert got[2] == (1 if u[2] < 0.25 else 2)


class TestUpdateEstimates:
    def test_first_slot_sets_estimate_to_transform(self):
        """lambda_0 = 1, so Q jumps straight to (1 - e^{-0.02}) / 0.01 = 1.98013."""
        state = init_state(1, 2)
        schedule = StepSchedule()
        new = update_estimates(state, (1,), (2.0,), (0.01,), schedule)
        assert new.q[0, 0] == pytest.approx(1.9801326693244699, rel=1e-12)
        assert new.q[0, 1] == 0.0
        assert new.slot == 0

    def test_only_chosen_channel_moves(self):
        state = LearnerState(p=np.full((2, 3), 1 / 3), q=np.full((2, 3), 0.5), slot=4)
        schedule = StepSchedule()
        new = update_estimates(state, (2, 3), (1.0, 0.0), (0.1, 0.1), schedule)
        lam = 0.2  # 1 / (4 + 1)
        t1 = payoff_transform(1.0, 0.1)
        assert new.q[0, 1] == pytest.approx(0.5 + lam * (t1 - 0.5), rel=1e-12)
        assert new.q[1, 2] == pytest.approx(0.5 + lam * (0.0 - 0.5), rel=1e-12)
        untouched = [(0, 0), (0, 2), (1, 0), (1, 1)]
        assert all(new.q[i, j] == 0.5 for i, j in untouched)

    def test_estimates_stay_below_inverse_theta(self):
        rng = np.random.default_rng(0)
        state = init_state(2, 2)
        schedule = StepSchedule()
        thetas = (0.5, 2.0)
        for _ in range(200):
            profile = select_actions(state, rng)
            rates = tuple(rng.uniform(0, 6, 2))
            state = update_estimates(state, profile, rates, thetas, schedule)
            state = update_probabilities(state, schedule)
            assert np.all(state.q[0] <= 1 / 0.5 + 1e-9)
            assert np.all(state.q[1] <= 1 / 2.0 + 1e-9)

    def test_corrupted_estimate_raises(self):
        # an estimate already above 1/theta cannot be pulled back in one step
        state = LearnerState(p=np.full((1, 2), 0.5), q=np.array([[0.0, 5.0]]), slot=9)
        with pytest.raises(ValueError, match="1/theta"):
            update_estimates(state, (1,), (1.0,), (0.5,), StepSchedule())

    def test_running_mean_identity(self):
        """With a frozen action and lambda = 1/t, Q is exactly the running
        mean of the transformed payoffs."""
        rng = np.random.default_rng(1)
        state = init_state(1, 1)
        schedule = StepSchedule()
        theta = 0.3
        seen = []
        for _ in range(500):
            r = float(rng.choice([0.0, 2.0]))
            seen.append(payoff_transform(r, theta))
            state = update_estimates(state, (1,), (r,), (theta,), schedule)
            state = update_probabilities(state, schedule)
        assert state.q[0, 0] == pytest.approx(np.mean(seen), abs=1e-12)

    def test_estimator_consistency(self):
        """Frozen profile: Q approaches the surrogate utility of the true
        rate law."""
        d = RateDistribution((0.0, 2.0), (0.5, 0.5))
        theta = 0.01
        rng = np.random.default_rng(9)
        state = init_state(1, 1)
        schedule = StepSchedule()
        for _ in range(3000):
            r = float(rng.choice(d.values, p=d.probs))
            state = update_estimates(state, (1,), (r,), (theta,), schedule)
            state = update_probabilities(state, schedule)
        assert state.q[0, 0] == pytest.approx(approx_utility(d, theta), abs=0.1)


class TestUpdateProbabilities:
    def test_two_channel_example(self):
        """p = (0.5, 0.5), Q = (1, 0), eta = 0.1: weights (0.55, 0.5)
        normalize to (0.52381, 0.47619)."""
        state = LearnerState(p=np.array([[0.5, 0.5]]), q=np.array([[1.0, 0.0]]))
        new = update_probabilities(state, StepSchedule(eta=0.1))
        assert new.p[0] == pytest.approx([0.55 / 1.05, 0.5 / 1.05], rel=1e-12)
        assert new.p[0] == pytest.approx([0.52381, 0.47619], abs=1e-5)
        assert new.slot == 1

    def test_rows_stay_on_simplex(self):
        rng = np.random.default_rng(2)
        state = init_state(3, 4)
        schedule = StepSchedule()
        thetas = (0.01, 0.1, 1.0)
        for _ in range(2000):
            profile = select_actions(state, rng)
            rates = tuple(rng.uniform(0, 6, 3))
            state = update_estimates(state, profile, rates, thetas, schedule)
            state = update_probabilities(state, schedule)
        assert np.abs(state.p.sum(axis=1) - 1.0).max() <= 1e-9

    def test_no_overflow_for_tiny_theta(self):
        """theta = 1e-4 puts Q near 1e4; the shifted exponent must not blow up."""
        q = np.array([[9000.0, 0.0]])
        state = LearnerState(p=np.array([[0.5, 0.5]]), q=q)
        new = update_probabilities(state, StepSchedule(eta=0.1))
        assert np.isfinite(new.p).all()
        assert new.p[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(4), size=2)
        q = rng.uniform(0, 5, size=(2, 4))
        perm = np.array([2, 0, 3, 1])
        direct = update_probabilities(
            LearnerState(p=p, q=q), StepSchedule(eta=0.1)
        ).p
        permuted = update_probabilities(
            LearnerState(p=p[:, perm], q=q[:, perm]), StepSchedule(eta=0.1)
        ).p
        assert permuted == pytest.approx(direct[:, perm], rel=1e-12)

    def test_zero_probability_stays_zero(self):
        state = LearnerState(p=np.array([[1.0, 0.0]]), q=np.array([[0.3, 5.0]]))
        new = update_probabilities(state, StepSchedule())
        assert new.p[0, 1] == 0.0


class TestConvergence:
    def test_threshold(self):
        assert is_converged(np.array([[0.995, 0.005]]))
        assert not is_converged(np.array([[0.985, 0.015]]))
        assert is_converged(np.array([[0.985, 0.015]]), epsilon=0.02)

    def test_every_user_must_concentrate(self):
        p = np.array([[0.999, 0.001], [0.5, 0.5]])
        assert not is_converged(p)


class TestSLA:
    def test_update_example(self):
        """Full reward on action 1 with b = 0.08 moves (0.5, 0.5) to
        (0.54, 0.46)."""
        state = SLAState(p=np.array([[0.5, 0.5]]), b=0.08, r_max=6.0)
        new = sla_update(state, (1,), (6.0,))
        assert new.p[0] == pytest.approx([0.54, 0.46], abs=1e-12)

    def test_zero_reward_is_inaction(self):
        state = init_sla(2, 3)
        new = sla_update(state, (1, 2), (0.0, 0.0))
        assert np.all(new.p == state.p)

    def test_reward_clipped_at_rmax(self):
        state = SLAState(p=np.array([[0.5, 0.5]]), b=0.08, r_max=2.0)
        new = sla_update(state, (1,), (50.0,))
        assert new.p[0, 0] == pytest.approx(0.54, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="step size"):
            init_sla(1, 2, b=1.0)
        with pytest.raises(ValueError, match="r_max"):
            init_sla(1, 2, r_max=0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_simplex_preserved(self, seed):
        rng = np.random.default_rng(seed)
        state = init_sla(3, 4)
        for _ in range(50):
            profile = sample_profile(state.p, rng)
            rates = tuple(rng.uniform(0, 8, 3))
            state = sla_update(state, profile, rates)
        assert np.abs(state.p.sum(axis=1) - 1.0).max() <= 1e-9


class TestRandomBaseline:
    def test_uniform_frequencies(self):
        rng = np.random.default_rng(6)
        hits = np.zeros(4)
        n = 10**5
        for _ in range(n):
            (a,) = random_baseline_profile(1, 4, rng)
            hits[a - 1] += 1
        assert hits / n == pytest.approx([0.25] * 4, abs=0.01)

    def test_shape_and_range(self):
        rng = np.random.default_rng(0)
        prof = random_baseline_profile(6, 3, rng)
        assert len(prof) == 6
        assert all(1 <= a <= 3 for a in prof)
