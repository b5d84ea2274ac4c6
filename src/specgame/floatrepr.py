"""repr of float64 arrays, vectorized: the bytes of repr(float(v)) per entry.

float_rows finds repr's digits with the Schubfach algorithm (R. Giulietti,
"The Schubfach way to render doubles", 2020) in uint64 numpy, then lays out
each value through one gather from a template keyed by its sign, digit count
and form. Every uint64 operand stays uint64: mixed with int64 it turns float64.
"""

import functools

import numpy as np

U, M32 = np.uint64, np.uint64(0xFFFFFFFF)
WIDTH = 24  # len("-1.2345678901234567e-308")
# Values formatted at once, which keeps each [3, BLOCK] uint64 temporary below
# glibc's 128 KiB mmap threshold: from 8,192 values _shortest took twice as long.
BLOCK = 4096
REPR_BELOW = 320  # fewer values go through repr, which beats the kernel's fixed cost
POW10 = 10 ** np.arange(18, dtype=np.uint64)
# A value's source row holds NUL, its digits A-Q from column 3 (the last 16 as
# four words), its exponent's word "0XYZ", then "-.0e+inf"; a template spells
# a repr in those letters, which COLS maps to their columns.
COLS = bytes.maketrans(b" ABCDEFGHIJKLMNOPQXYZ-.0e+inf", bytes([0, *range(3, 20), *range(21, 32)]))
FORMS = 24  # positional with decpt -3..16, then e+XX, e+XXX, e-XX and e-XXX
SPECIAL = 2 * 17 * FORMS  # the keys of 0.0, -0.0, inf, -inf and NaN's empty row


def _template(n: int, form: int) -> str:
    """The unsigned repr of the n digits ABC... in a form."""
    digits, point = "ABCDEFGHIJKLMNOPQ"[:n], form - 3  # digits before the point
    if form >= 20:
        neg, three = divmod(form - 20, 2)
        return (digits[:1] + "." + digits[1:]).rstrip(".") + "e" + "+-"[neg] + "XYZ"[1 - three :]
    padded, point = "0" * (1 - point) + digits + "0" * (point - n), max(point, 1)
    return padded[:point] + "." + (padded[point:] or "0")


@functools.cache
def _tables():
    """Built on first use: g = floor(10^e 2^(125 - floor(e log2 10))) + 1 for
    e in [-292, 324], split at bit 63; the ASCII words of 0000..9999; the
    form by decpt + 330; the templates by key."""
    shifts = [(e, 125 - ((e * 913124641741) >> 38)) for e in range(-292, 325)]
    g = [((10 ** max(e, 0) << max(s, 0)) >> max(-s, 0)) // 10 ** max(-e, 0) + 1 for e, s in shifts]
    g = np.array([[x >> 63 for x in g], [x & (1 << 63) - 1 for x in g]], dtype=np.uint64)
    digits = np.frombuffer("".join(f"{i:04}" for i in range(10000)).encode(), dtype=np.uint32)
    decpts = range(-330, 330)
    forms = [d + 3 if -4 < d <= 16 else 20 + 2 * (d < 1) + (abs(d - 1) >= 100) for d in decpts]
    reprs = [s + _template(n, f) for s in ("", "-") for n in range(1, 18) for f in range(FORMS)]
    reprs = "".join(r.ljust(WIDTH) for r in reprs + ["0.0", "-0.0", "inf", "-inf", "", ""])
    templates = np.frombuffer(reprs.encode().translate(COLS), dtype=np.uint8)
    return g, digits, np.array(forms), templates.reshape(-1, WIDTH)


def _mulhi(a, b0, b1):
    """The high 64 bits of a b for a < 2^63 and b < 2^60, from b's 32-bit halves."""
    a0, a1 = a & M32, a >> U(32)
    return ((a0 * b0 >> U(32)) + a1 * b0 + a0 * b1 >> U(32)) + a1 * b1


def _shortest(bq: np.ndarray, t: np.ndarray):
    """f and k with |v| = f 10^k, f the shortest and then the closest that
    rounds to v, for biased exponents bq and significand fields t."""
    g = _tables()[0]
    c = t | ((bq != 0).astype(np.uint64) << U(52))  # |v| = c 2^q
    q = np.maximum(bq, 1) - 1075
    boundary = (t == 0) & (bq > 1)  # the interval is narrower below v
    k = (q * 661971961083 - boundary * 274743187321) >> 41
    h = (q + ((k * -913124641741) >> 38) + 2).astype(np.uint64)
    cp = c << U(2)  # 4 v and the interval's ends, times 2^h
    cp = np.stack([cp, cp - U(2) + boundary, cp + U(2)]) << h
    b0, b1, g1 = cp & M32, cp >> U(32), g[0].take(292 - k)
    z = (g1 * cp >> U(1)) + _mulhi(g[1].take(292 - k), b0, b1)
    vb, lower, upper = _mulhi(g1, b0, b1) + (z >> U(63)) | ((z << U(1)) != 0)  # round to odd
    odd = c & U(1)  # an odd significand's interval leaves out its ends
    lower, upper, s = lower + odd, upper - odd, vb >> U(2)
    sp10 = s // U(10) * U(10)
    upin, wpin = lower <= sp10 << U(2), upper >= (sp10 << U(2)) + U(40)
    uin, win = lower <= s << U(2), upper >= (s << U(2)) + U(4)
    up = np.where(uin != win, win, vb + (s & U(1)) > (s << U(2)) + U(2))
    return np.where((upin != wpin) & (s >= U(10)), sp10 + U(10) * wpin, s + up), k


def _block(bits: np.ndarray, src: np.ndarray, out: np.ndarray) -> None:
    """Writes the reprs of one block of bit patterns into out, through the source rows src."""
    _, digits, forms, templates = _tables()
    bq = ((bits >> U(52)) & U(0x7FF)).astype(np.int64)
    f, k = _shortest(bq, bits & U((1 << 52) - 1))
    # normal values have 16 or 17 digits; zeros, infinities and NaNs any
    length = np.searchsorted(POW10, f, "right") if (bq == 0).any() else (f >= POW10[16]) + 16
    f *= POW10.take(17 - np.minimum(length, 17, out=length))  # 17 digits, trailing zeros and all
    first, rest = np.divmod(f.view(np.int64), 10**16)
    halves = np.stack(np.divmod(rest, 10**8), axis=1)
    words = src.view(np.uint32)
    words[:, 1:5] = digits.take(np.stack(np.divmod(halves, 10**4), axis=2).reshape(-1, 4))
    src[:, 3] = first + 48
    n = 17 - np.argmax(src[:, 19:2:-1] != 48, axis=1)  # less trailing zeros
    decpt = length + k + 330
    words[:, 5] = digits.take(np.abs(decpt - 331))
    sign = (bits >> U(63)).astype(np.intp)
    key = (sign * 17 + n - 1) * FORMS + forms.take(decpt)
    special = (bq == 2047) | ((bits << U(1)) == 0)
    nan = (bq == 2047) & ((bits << U(12)) != 0)
    key = np.where(special, SPECIAL + 2 * (bq == 2047) + 2 * nan + sign, key)
    for start in range(0, bits.size, 512):  # index temporaries below 128 KiB
        index = templates.take(key[start : start + 512], axis=0)
        index = index + np.arange(start * 32, (start + len(index)) * 32, 32)[:, None]
        src.ravel().take(index, out=out[start : start + 512])


def float_rows(values) -> np.ndarray:
    """A uint8 array [size, WIDTH]: per entry of values, in C order, the bytes
    of its repr padded with NUL; a NaN gives NULs only, an empty string."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if values.size < REPR_BELOW:
        rows = np.array(list(map(repr, values.tolist())), dtype=f"S{WIDTH}")
        return rows.view(np.uint8).reshape(-1, WIDTH) * (values == values)[:, None]
    out = np.empty((values.size, WIDTH), dtype=np.uint8)
    src = np.tile(np.frombuffer(bytes(24) + b"-.0e+inf", np.uint8), (min(values.size, BLOCK), 1))
    for start in range(0, values.size, BLOCK):
        bits = values[start : start + BLOCK].view(np.uint64)
        _block(bits, src[: bits.size], out[start : start + BLOCK])
    return out
