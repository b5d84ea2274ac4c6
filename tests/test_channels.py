import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channels
from specgame.channels import (
    ChannelSpec,
    RateSampler,
    rayleigh_state_probs,
    sample_realization,
)
from specgame.config import config_from_dict

RATES_5STATE = (0.0, 1.0, 2.0, 3.0, 6.0)
# Widely quoted 5-state probabilities for a 5 dB HIPERLAN/2-style channel.
# As printed they sum to 1.0018, so the ChannelSpec below uses the normalized
# vector; the raw dot product is still asserted as arithmetic.
PROBS_5DB_RAW = (0.3376, 0.2348, 0.2517, 0.1757, 0.002)


class TestChannelSpec:
    def test_accepts_valid_spec(self):
        spec = ChannelSpec(id=1, rates=(0, 2), probs=(0.5, 0.5))
        assert spec.rates == (0.0, 2.0)
        assert spec.probs == (0.5, 0.5)

    def test_rejects_bad_id(self):
        with pytest.raises(ValueError, match="id"):
            ChannelSpec(id=0, rates=(1.0,), probs=(1.0,))

    def test_rejects_empty_rates(self):
        with pytest.raises(ValueError, match="at least one rate"):
            ChannelSpec(id=1, rates=(), probs=())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="^channel 1: 2 rates but 1 probs"):
            ChannelSpec(id=1, rates=(0, 1), probs=(1.0,))

    def test_rejects_descending_rates(self):
        with pytest.raises(ValueError, match="ascending"):
            ChannelSpec(id=1, rates=(2, 1), probs=(0.5, 0.5))

    def test_rejects_duplicate_rates(self):
        with pytest.raises(ValueError, match="distinct"):
            ChannelSpec(id=1, rates=(1, 1), probs=(0.5, 0.5))

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChannelSpec(id=1, rates=(-1, 1), probs=(0.5, 0.5))

    def test_rejects_prob_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ChannelSpec(id=1, rates=(0, 1), probs=(-0.1, 1.1))

    def test_rejects_bad_prob_sum(self):
        with pytest.raises(ValueError, match="^channel 3: probs sum to"):
            ChannelSpec(id=3, rates=(0, 1), probs=(0.5, 0.4))
        # the raw published 5 dB vector (sum 1.0018) is likewise rejected
        with pytest.raises(ValueError, match="sum"):
            ChannelSpec(id=1, rates=RATES_5STATE, probs=PROBS_5DB_RAW)


class TestMeanRate:
    def test_published_5db_vector(self):
        """Raw dot product of the printed vector is 1.2773; the normalized
        spec scales it by the printed sum 1.0018."""
        raw_dot = float(np.dot(RATES_5STATE, PROBS_5DB_RAW))
        assert raw_dot == pytest.approx(1.2773, abs=1e-12)
        total = math.fsum(PROBS_5DB_RAW)
        spec = ChannelSpec(
            id=1, rates=RATES_5STATE, probs=tuple(p / total for p in PROBS_5DB_RAW)
        )
        assert spec.law.mean() == pytest.approx(1.2773 / total, rel=1e-12)

    def test_degenerate(self):
        assert ChannelSpec(id=1, rates=(3.0,), probs=(1.0,)).law.mean() == 3.0

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0))
    @settings(max_examples=50, deadline=None)
    def test_mean_between_min_and_max(self, k, seed):
        rng = np.random.default_rng(seed)
        rates = tuple(np.cumsum(rng.uniform(0.05, 2.0, size=k)))
        probs = tuple(rng.dirichlet(np.ones(k)))
        spec = ChannelSpec(id=1, rates=rates, probs=probs)
        assert rates[0] - 1e-12 <= spec.law.mean() <= rates[-1] + 1e-12


class TestRayleighStateProbs:
    def test_two_state_at_mean_snr(self):
        """Threshold at the mean SNR splits an exponential into
        1 - 1/e = 0.63212 and 1/e = 0.36788."""
        probs = rayleigh_state_probs(5.0, [0.0, 3.16228, math.inf])
        assert probs[0] == pytest.approx(0.63212, abs=1e-5)
        assert probs[1] == pytest.approx(0.36788, abs=1e-5)

    def test_single_state(self):
        assert rayleigh_state_probs(5.0, [0.0, math.inf]) == (1.0,)

    def test_sum_is_one(self):
        probs = rayleigh_state_probs(7.0, [0.0, 0.5, 1.0, 4.0, 9.0, math.inf])
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            rayleigh_state_probs(5.0, [0.0, 2.0, 2.0, math.inf])

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError, match="first threshold"):
            rayleigh_state_probs(5.0, [0.1, math.inf])
        with pytest.raises(ValueError, match="last threshold"):
            rayleigh_state_probs(5.0, [0.0, 10.0])

    @given(
        st.floats(min_value=-5.0, max_value=15.0),
        st.lists(
            st.floats(min_value=1e-3, max_value=50.0), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_sum_property(self, snr_db, gaps):
        interior = list(np.cumsum(gaps))
        probs = rayleigh_state_probs(snr_db, [0.0, *interior, math.inf])
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in probs)


class TestSpecFromSnr:
    def test_matches_direct_call(self):
        """A config channel's thresholds_db are interior band edges in dB."""
        channels = [
            {"rates": [0.0], "probs": [1.0]},
            {
                "rates": list(RATES_5STATE),
                "avg_snr_db": 6.0,
                "thresholds_db": [1.0, 4.0, 7.0, 14.0],
            },
        ]
        cfg = config_from_dict({"game": {"theta": 0.1, "n_users": 1, "channels": channels}})
        spec = cfg.sim.game.channels[1]
        direct = rayleigh_state_probs(
            6.0, [0.0, 10 ** 0.1, 10 ** 0.4, 10 ** 0.7, 10 ** 1.4, math.inf]
        )
        assert spec.id == 2
        assert spec.probs == pytest.approx(direct, rel=1e-12)


class TestSampleRealization:
    def test_degenerate_channel_is_constant(self):
        spec = ChannelSpec(id=1, rates=(3.0,), probs=(1.0,))
        rng = np.random.default_rng(0)
        assert all(sample_realization([spec], rng) == (3.0,) for _ in range(100))

    def test_state_frequencies(self):
        """Inverse-CDF sampling reproduces the state probabilities:
        1e6 draws land within 5e-3 of each target mass."""
        total = math.fsum(PROBS_5DB_RAW)
        spec = ChannelSpec(
            id=1, rates=RATES_5STATE, probs=tuple(p / total for p in PROBS_5DB_RAW)
        )
        rng = np.random.default_rng(12345)
        n = 10**6
        hits = dict.fromkeys(RATES_5STATE, 0)
        for _ in range(n):
            (r,) = sample_realization([spec], rng)
            hits[r] += 1
        for r, p in zip(spec.rates, spec.probs):
            assert hits[r] / n == pytest.approx(p, abs=5e-3)

    def test_one_draw_per_channel_in_id_order(self):
        specs = [
            ChannelSpec(id=1, rates=(0.0, 1.0), probs=(0.5, 0.5)),
            ChannelSpec(id=2, rates=(0.0, 2.0), probs=(0.25, 0.75)),
        ]
        u = np.random.default_rng(7).random(2)
        got = sample_realization(specs, np.random.default_rng(7))
        expect = tuple(
            spec.rates[int(u[i] >= spec.probs[0])] for i, spec in enumerate(specs)
        )
        assert got == expect

    def test_reproducible(self):
        specs = [
            ChannelSpec(id=1, rates=RATES_5STATE, probs=(0.2, 0.2, 0.2, 0.2, 0.2)),
            ChannelSpec(id=2, rates=(0.0, 4.0), probs=(0.9, 0.1)),
        ]
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            runs.append([sample_realization(specs, rng) for _ in range(1000)])
        assert runs[0] == runs[1]


class TestRateSampler:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_chunk_equals_its_slots_and_sample_realization(self, seed):
        rng = np.random.default_rng(seed)
        specs = random_channels(rng, int(rng.integers(1, 5)))
        k, trials, m = 3, 4, len(specs)
        u = rng.random((k, trials, m))
        sample = RateSampler(specs)
        chunk = sample(u)
        assert chunk.shape == (k, trials, m)
        assert np.array_equal(chunk, np.stack([sample(u[s]) for s in range(k)]))
        # the scalar sampler reads the same M uniforms from a generator
        draws = np.random.default_rng(seed + 1)
        row = draws.random(m)
        want = sample_realization(specs, np.random.default_rng(seed + 1))
        assert tuple(sample(row).tolist()) == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_ties_and_uniforms_on_a_cumulative_value(self, seed):
        rng = np.random.default_rng(seed)
        specs = []
        for m in range(1, int(rng.integers(1, 5)) + 1):
            k = int(rng.integers(1, 6))
            probs = rng.dirichlet(np.ones(k))
            # zero-probability states repeat a cumulative value
            probs[rng.random(k) < 0.4] = 0.0
            if probs.sum() == 0.0:
                probs[-1] = 1.0
            rates = np.cumsum(rng.uniform(0.05, 2.0, k))
            specs.append(ChannelSpec(id=m, rates=tuple(rates), probs=tuple(probs / probs.sum())))
        # per channel: 0, every cumulative value below 1, the float below
        # each, and a random uniform
        options = []
        for spec in specs:
            cum = [c for c in spec._cum_probs if c < 1.0]
            below = [math.nextafter(c, 0.0) for c in cum]
            options.append([0.0, *cum, *below, float(rng.random())])
        rows = np.array([[float(rng.choice(o)) for o in options] for _ in range(32)])
        sample = RateSampler(specs)
        for row, got in zip(rows, sample(rows)):
            want = sample_realization(specs, FixedUniforms(row))
            assert tuple(got.tolist()) == want


class FixedUniforms:
    """A generator stand-in whose `random` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u
