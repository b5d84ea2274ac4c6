"""float_rows against repr, with NaN as an empty row."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specgame.floatrepr import REPR_BELOW, WIDTH, float_rows


def expected(values: np.ndarray) -> np.ndarray:
    cells = ["" if math.isnan(v) else repr(v) for v in values.tolist()]
    return np.array(cells, dtype=f"S{WIDTH}")


def kernel(values: np.ndarray) -> np.ndarray:
    """float_rows as strings, with at least REPR_BELOW values so that the
    kernel, not repr, formats them."""
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = float_rows(np.resize(values, max(values.size, REPR_BELOW)))
    assert rows.shape[1] == WIDTH and rows.dtype == np.uint8
    return rows.view(f"S{WIDTH}").ravel()[: values.size]


def patterns(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def assert_matches(values: np.ndarray) -> None:
    got, want = kernel(values), expected(values)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [(values[i], got[i], want[i]) for i in bad[:5]]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_random_bit_patterns(bits):
    assert_matches(patterns(bits))


def test_every_exponent_at_its_ends():
    # the first and last significand of each biased exponent, +-3 ulps, both signs
    exponent = np.arange(2048, dtype=np.uint64) << np.uint64(52)
    ends = np.concatenate([exponent, exponent | np.uint64(2**52 - 1)])
    bits = ends[:, None] + np.arange(-3, 4).astype(np.uint64)  # wraps at 0 and 2^64
    assert_matches(patterns(np.concatenate([bits.ravel(), bits.ravel() | np.uint64(1 << 63)])))


def test_subnormals_zeros_infinities_and_nans():
    small = np.arange(1, 5000, dtype=np.uint64)
    bits = np.concatenate(
        [
            small,
            np.uint64(2**52) - small,
            np.uint64(2**52 - 1) >> np.arange(52, dtype=np.uint64),
            np.array([0, 1 << 63, 0x7FF0 << 48, 0xFFF0 << 48], dtype=np.uint64),
            # NaN payloads, quiet and signalling, of both signs
            np.array(
                [0x7FF8 << 48, 0x7FF0_0000_0000_0001, 0xFFF0_0000_0000_0123, 2**64 - 1],
                dtype=np.uint64,
            ),
        ]
    )
    values = patterns(bits)
    assert_matches(values)
    assert_matches(-values)
    rows = kernel(values)
    assert (rows[-4:] == b"").all()
    assert rows[-8:-4].tolist() == [b"0.0", b"-0.0", b"inf", b"-inf"]


def neighbours(values, steps=3):
    out = []
    for v in values:
        x = v
        for _ in range(steps):
            x = math.nextafter(x, -math.inf)
        for _ in range(2 * steps + 1):
            out.append(x)
            x = math.nextafter(x, math.inf)
    return np.array(out)


def test_notation_switches_and_three_digit_exponents():
    # positional from 1e-4 up to below 1e16, d.ddde+-XX outside
    edges = [1e-4, 1e-5, 9.999999999999999e-5, 1e15, 1e16, 1e17, 9999999999999998.0, 0.001]
    big = [1e99, 1e100, 1e-99, 1e-100, 1.7976931348623157e308, 2.2250738585072014e-308]
    values = neighbours(edges + big + [5e-324 * 7, 1.0, 0.1, 1 / 3, 123456.789])
    assert_matches(np.concatenate([values, -values]))


def test_seeded_sweep_of_random_patterns():
    rng = np.random.default_rng(20)
    assert_matches(patterns(rng.integers(0, 2**64, 2**18, dtype=np.uint64, endpoint=False)))


def test_repr_and_kernel_sides_of_the_size_switch():
    rng = np.random.default_rng(3)
    values = np.concatenate(
        [rng.random(REPR_BELOW) * 10.0 ** rng.integers(-30, 30, REPR_BELOW), [math.nan, -0.0]]
    )
    for size in (0, 1, REPR_BELOW - 1, REPR_BELOW, REPR_BELOW + 1):
        part = values[-size:] if size else values[:0]
        rows = float_rows(part)
        assert rows.shape == (size, WIDTH)
        assert rows.tobytes() == expected(part).view(np.uint8).tobytes()
