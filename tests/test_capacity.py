import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgame.capacity import (
    RateDistribution,
    approx_utility,
    effective_capacity,
    empirical_effective_capacity,
    payoff_transform,
    taylor_diagnostic,
)


def dist_strategy(min_states=2, max_states=5):
    @st.composite
    def build(draw):
        k = draw(st.integers(min_states, max_states))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        values = tuple(np.cumsum(rng.uniform(0.05, 2.0, size=k)))
        probs = rng.dirichlet(np.ones(k))
        probs = np.clip(probs, 1e-6, None)
        probs = probs / probs.sum()
        return RateDistribution(values=values, probs=tuple(probs))

    return build()


class TestRateDistribution:
    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError, match="distinct"):
            RateDistribution((1.0, 1.0), (0.5, 0.5))

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError, match="sum"):
            RateDistribution((0.0, 1.0), (0.3, 0.3))

    def test_moments(self):
        d = RateDistribution((0.0, 2.0), (0.5, 0.5))
        assert d.mean() == 1.0
        assert d.variance() == 1.0


class TestEffectiveCapacity:
    def test_two_point_example(self):
        """C(1) of {0 w.p. 1/2, 2 w.p. 1/2} is -ln(0.5*(1+e^-2)) = 0.566219."""
        d = RateDistribution((0.0, 2.0), (0.5, 0.5))
        got = effective_capacity(d, 1.0)
        assert got == pytest.approx(-math.log(0.5 * (1 + math.exp(-2))), rel=1e-14)
        assert got == pytest.approx(0.5662191695169727, rel=1e-12)

    def test_degenerate_equals_value(self):
        d = RateDistribution((3.0,), (1.0,))
        assert effective_capacity(d, 0.7) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_nonpositive_theta(self):
        d = RateDistribution((0.0, 2.0), (0.5, 0.5))
        for theta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="QoS exponent"):
                effective_capacity(d, theta)

    def test_no_underflow_at_large_theta(self):
        """Log-space evaluation keeps C finite when every exp(-theta*x)
        underflows; C(50) of {100, 200} is 100 + ln(2)/50."""
        d = RateDistribution((100.0, 200.0), (0.5, 0.5))
        assert effective_capacity(d, 50.0) == pytest.approx(
            100.0 + math.log(2) / 50.0, rel=1e-12
        )

    def test_small_theta_limit_is_mean(self):
        d = RateDistribution((0.0, 1.0, 3.0), (0.2, 0.5, 0.3))
        assert effective_capacity(d, 1e-9) == pytest.approx(d.mean(), abs=1e-6)

    @given(dist_strategy())
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_theta(self, d):
        grid = np.geomspace(1e-4, 1.0, 9)
        vals = [effective_capacity(d, t) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(dist_strategy())
    @settings(max_examples=60, deadline=None)
    def test_jensen_bound_strict(self, d):
        assert effective_capacity(d, 0.5) < d.mean()

    @given(dist_strategy())
    @settings(max_examples=60, deadline=None)
    def test_limit_approach_is_monotone(self, d):
        """On a geometric grid shrinking toward 0, C increases toward the mean."""
        grid = np.geomspace(1e-1, 1e-6, 11)
        vals = [effective_capacity(d, t) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(d.mean(), rel=1e-5)


class TestLogSumExp:
    """The max-shifted log-sum-exp against the direct formula, where the
    direct formula cannot underflow.

    Either formula loses about eps / (theta * C) to rounding in the log, so
    rates stay at 0.05 and above and theta at 0.01 and above, as in
    dist_strategy: there theta * C >= 5e-4 and both keep 1e-12.
    """

    @given(dist_strategy(min_states=1), st.floats(1e-2, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_effective_capacity_matches_direct_sum(self, d, theta):
        mgf = math.fsum(p * math.exp(-theta * v) for v, p in zip(d.values, d.probs))
        assert effective_capacity(d, theta) == pytest.approx(
            -math.log(mgf) / theta, rel=1e-12
        )

    @given(
        st.lists(st.floats(0.05, 10.0), min_size=1, max_size=300),
        st.floats(1e-2, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_empirical_capacity_matches_direct_sum(self, samples, theta):
        mean = math.fsum(math.exp(-theta * x) for x in samples) / len(samples)
        assert empirical_effective_capacity(samples, theta) == pytest.approx(
            -math.log(mean) / theta, rel=1e-12
        )

    def test_zero_probability_state_does_not_set_the_shift(self):
        # the unreachable rate 0 would shift by 0 and underflow every real term
        d = RateDistribution((0.0, 100.0), (0.0, 1.0))
        assert effective_capacity(d, 50.0) == pytest.approx(100.0, rel=1e-12)


class TestApproxUtility:
    def test_two_point_example(self):
        d = RateDistribution((0.0, 2.0), (0.5, 0.5))
        assert approx_utility(d, 1.0) == pytest.approx(0.4323323583816936, rel=1e-12)

    @given(dist_strategy(), st.sampled_from([1e-3, 1e-2, 1e-1, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_capacity_identity(self, d, theta):
        """A = (1 - exp(-theta*C)) / theta ties the surrogate to C exactly."""
        c = effective_capacity(d, theta)
        a = approx_utility(d, theta)
        assert a == pytest.approx(-math.expm1(-theta * c) / theta, rel=1e-12)
        assert a <= c + 1e-12

    def test_bounded_by_inverse_theta(self):
        d = RateDistribution((50.0, 60.0), (0.5, 0.5))
        assert approx_utility(d, 2.0) <= 0.5
        assert approx_utility(RateDistribution((0.0, 3.0), (0.5, 0.5)), 2.0) < 0.5


class TestPayoffTransform:
    def test_example(self):
        assert payoff_transform(2.0, 0.01) == pytest.approx(1.9801326693244699, rel=1e-12)
        assert payoff_transform(2.0, 0.01) == pytest.approx(1.98013, abs=1e-5)

    def test_zero_rate(self):
        assert payoff_transform(0.0, 0.3) == 0.0

    def test_vectorized(self):
        out = payoff_transform(np.array([0.0, 1.0, 2.0]), 0.5)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert np.all(np.diff(out) > 0)

    def test_per_user_thetas(self):
        rates = np.array([2.0, 2.0])
        thetas = np.array([0.01, 1.0])
        out = payoff_transform(rates, thetas)
        assert out[0] == pytest.approx(payoff_transform(2.0, 0.01), rel=1e-14)
        assert out[1] == pytest.approx(payoff_transform(2.0, 1.0), rel=1e-14)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError, match="QoS exponent"):
            payoff_transform(1.0, 0.0)


class TestEmpiricalEffectiveCapacity:
    def test_matches_empirical_distribution(self):
        """[1, 1, 3] at theta=0.5 equals C of {1: 2/3, 3: 1/3}."""
        got = empirical_effective_capacity([1.0, 1.0, 3.0], 0.5)
        closed = effective_capacity(RateDistribution((1.0, 3.0), (2 / 3, 1 / 3)), 0.5)
        assert got == pytest.approx(closed, rel=1e-12)
        assert got == pytest.approx(1.4732349692197175, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            empirical_effective_capacity([], 0.5)

    def test_converges_to_closed_form(self):
        d = RateDistribution((0.0, 2.0), (0.5, 0.5))
        rng = np.random.default_rng(5)
        samples = rng.choice(d.values, size=10**5, p=d.probs)
        got = empirical_effective_capacity(samples, 0.01)
        assert got == pytest.approx(effective_capacity(d, 0.01), abs=2e-2)


class TestTaylorDiagnostic:
    def test_example(self):
        """{0, 2} even odds: mean 1, var 1, so the expansion at theta=0.1 is
        0.95; the residual is the kurtosis-order term ~ theta^3/12."""
        d = RateDistribution((0.0, 2.0), (0.5, 0.5))
        approx, res = taylor_diagnostic(d, 0.1)
        assert approx == pytest.approx(0.95, abs=1e-12)
        assert res == pytest.approx(8.311178353515025e-05, rel=1e-9)

    def test_residual_shrinks_cubically_here(self):
        d = RateDistribution((0.0, 2.0), (0.5, 0.5))
        for theta in (0.1, 0.05, 0.02):
            _, res_full = taylor_diagnostic(d, theta)
            _, res_half = taylor_diagnostic(d, theta / 2)
            assert abs(res_half) <= 0.3 * abs(res_full)

    @given(dist_strategy(), st.sampled_from([1e-3, 1e-2]))
    @settings(max_examples=40, deadline=None)
    def test_small_theta_regime_bound(self, d, theta):
        c = effective_capacity(d, theta)
        assert abs(c - d.mean()) <= theta * d.variance() + 1e-12
