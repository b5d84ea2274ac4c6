import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgame import plots
from specgame.plots import Series, line_chart


def reference_line_chart(series, title, x_label, y_label) -> str:
    """line_chart as it was written point by point: the reference.

    It widens a span that rounding collapses by an ulp, as line_chart does.
    """
    W, H = plots.WIDTH, plots.HEIGHT
    L, R, T, B = plots.MARGIN_L, plots.MARGIN_R, plots.MARGIN_T, plots.MARGIN_B
    coord = plots._coord
    pts = [
        (float(x), float(y))
        for s in series
        for x, y in zip(s.xs, s.ys)
        if math.isfinite(x) and math.isfinite(y)
    ]
    if not pts:
        raise ValueError("nothing to plot: every point is missing or non-finite")
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    # at |v| >= 2**53 those widenings are lost in rounding; an ulp is not
    if x_hi == x_lo:
        x_hi = math.nextafter(x_lo, math.inf)
    if y_hi == y_lo:
        y_lo, y_hi = math.nextafter(y_lo, -math.inf), math.nextafter(y_hi, math.inf)
    pad = 0.05 * (y_hi - y_lo)
    # where the padded span passes the largest float, y is measured in
    # quarters, which keeps the bounds and each point's offset finite
    y_unit = 0.25 if math.isinf((y_hi + pad) - (y_lo - pad)) else 1.0
    y_lo, y_hi = y_unit * y_lo, y_unit * y_hi
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = W - L - R
    plot_h = H - T - B

    def sx(x: float) -> float:
        return L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return T + (y_hi - y_unit * y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
        f'height="{H}" viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="#ffffff"/>',
        f'<text x="{W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    for t in plots._ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{coord(x)}" y1="{T}" x2="{coord(x)}" '
            f'y2="{H - B}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{coord(x)}" y="{H - B + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{plots._num(t)}</text>"
        )
    for t in plots._ticks(y_lo / y_unit, y_hi / y_unit):
        y = sy(t)
        parts.append(
            f'<line x1="{L}" y1="{coord(y)}" x2="{W - R}" '
            f'y2="{coord(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{L - 8}" y="{coord(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{plots._num(t)}</text>'
        )
    parts.append(
        f'<rect x="{L}" y="{T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for i, s in enumerate(series):
        color = plots.PALETTE[i % len(plots.PALETTE)]
        coords = " ".join(
            f"{coord(sx(float(x)))},{coord(sy(float(y)))}"
            for x, y in zip(s.xs, s.ys)
            if math.isfinite(float(x)) and math.isfinite(float(y))
        )
        if coords:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = T + 14 + 16 * i
        lx = W - R - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{s.label}</text>'
        )
    parts.append(
        f'<text x="{L + plot_w // 2}" y="{H - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{x_label}</text>"
    )
    parts.append(
        f'<text x="16" y="{T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {T + plot_h // 2})">{y_label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def outcome(chart, series) -> str:
    """The chart's SVG text, or the error it raised."""
    try:
        return chart(series, "title", "x", "y")
    except (ValueError, OverflowError) as err:
        return repr(err)


def repr_points(xs, ys) -> str:
    """plots._points at full precision: each coordinate as its repr."""
    return " ".join(f"{x!r},{y!r}" for x, y in zip(xs.tolist(), ys.tolist()))


def same_chart(*series):
    """The same bytes as the reference, from lists and from arrays; and the
    same coordinates at full precision, where two decimals would hide a
    difference in the last bits."""
    as_arrays = [Series(s.label, np.asarray(s.xs, float), np.asarray(s.ys, float)) for s in series]
    for coord, points in ((plots._coord, plots._points), (repr, repr_points)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(plots, "_coord", coord)
            mp.setattr(plots, "_points", points)
            expected = outcome(reference_line_chart, series)
            assert outcome(line_chart, series) == expected
            assert outcome(line_chart, as_arrays) == expected


NAN, INF = math.nan, math.inf
MAX = 1.7976931348623157e308


class TestLineChartMatchesReference:
    def test_missing_and_infinite_points(self):
        same_chart(
            Series("a", [1, 2, 3, 4, 5, 6], [0.5, NAN, 0.25, INF, -INF, 0.75]),
            Series("b", [1, NAN, 3, INF, 5, 6], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
        )

    def test_single_point(self):
        same_chart(Series("one", [3], [1.25]))

    def test_constant_series(self):
        same_chart(Series("flat", range(1, 50), [2.0] * 49))

    def test_one_x_value(self):
        same_chart(Series("a", [7.0, 7.0, 7.0], [1.0, 3.0, 2.0]))

    def test_negative_values(self):
        same_chart(
            Series("a", [-3.5, -2.0, -0.5], [-10.0, -0.001, -4.25]),
            Series("b", [-3.0, -1.0], [-0.0, 0.0]),
        )

    def test_empty_series_beside_a_full_one(self):
        same_chart(Series("empty", [], []), Series("full", [1, 2, 3], [1.0, 4.0, 9.0]))
        same_chart(Series("full", [1, 2], [0.0, -0.0]), Series("all missing", [1, 2], [NAN, INF]))

    def test_series_of_unequal_lengths_stop_at_the_shorter(self):
        same_chart(Series("a", [1, 2, 3, 4], [5.0, 6.0]), Series("b", [1.0], [2.0, 3.0]))

    @pytest.mark.parametrize(
        "series",
        [
            [],
            [Series("none", [], [])],
            [Series("nan", [1, 2], [NAN, NAN]), Series("inf", [INF, -INF], [1.0, 2.0])],
        ],
    )
    def test_nothing_finite_is_refused(self, series):
        for chart in (line_chart, reference_line_chart):
            with pytest.raises(ValueError, match="nothing to plot"):
                chart(series, "title", "x", "y")

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(-1e6, 1e6) | st.sampled_from([NAN, INF, -0.0, 0.0]),
                    st.floats(allow_nan=True, allow_infinity=True, width=32)
                    | st.sampled_from([5e-324, 1e300, -0.0]),
                ),
                max_size=30,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_random_series(self, points):
        same_chart(
            *(
                Series(f"s{i}", [x for x, _ in pts], [y for _, y in pts])
                for i, pts in enumerate(points)
            )
        )


def same_points(values):
    """plots._points on values paired up gives the bytes of "%.2f" % v for
    every coordinate."""
    values = np.asarray(values, dtype=float)
    for xs, ys in ((values[::2], values[1::2]), (values[1::2], values[::2])):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        want = " ".join("%.2f,%.2f" % point for point in zip(xs.tolist(), ys.tolist()))
        assert plots._points(xs, ys) == want


# every tie of %.2f up to the chart's width, k / 200 for odd k, and the
# coordinates that round to whole cents between them
TIES = np.arange(144_000) / 200
SPECIAL = [-0.0, 0.0, -1e-9, -0.005, -3.5, NAN, INF, -INF, 9999.985, 9999.99, 9999.995, 1e4, 1e5, 1e300, MAX]


class TestPointsMatchPercentFormat:
    def test_every_tie_and_its_neighbours(self):
        same_points(np.stack([TIES, np.nextafter(TIES, INF), np.nextafter(TIES, -INF)], axis=1).ravel())

    def test_values_outside_the_kernel(self):
        same_points(SPECIAL + SPECIAL[::-1])
        same_points([1.0, *SPECIAL, 2.0])

    def test_no_points(self):
        assert plots._points(np.zeros(0), np.zeros(0)) == ""

    def test_only_near_ties_and_outside_values_go_through_percent(self, monkeypatch):
        # with the table's digits as letters, letters show what the table wrote
        table = plots._words().view(np.uint8).copy()
        table[(table >= ord("0")) & (table <= ord("9"))] += ord("a") - ord("0")
        monkeypatch.setattr(plots, "_words", lambda: table.view(np.uint32))
        letters = str.maketrans("0123456789", "abcdefghij")
        kernel = [0.0, 0.3, 1.0, 719.99, 9999.98]
        percent = [-0.0, 0.005, 0.125, 2.675, 9999.99, 1e4, 1e300]
        xs = np.array(kernel + percent)
        got = [point.split(",")[0] for point in plots._points(xs, np.ones(len(xs))).split()]
        want = [("%.2f" % x).translate(letters) for x in kernel] + ["%.2f" % x for x in percent]
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(0.0, 1e5, exclude_max=True)
            | st.integers(0, len(TIES) - 1).flatmap(
                lambda k: st.sampled_from(
                    [TIES[k], np.nextafter(TIES[k], INF), np.nextafter(TIES[k], -INF)]
                )
            )
            | st.sampled_from(SPECIAL)
            | st.floats(),
            max_size=5000,
        )
    )
    def test_random_values(self, values):
        same_points(values)


class Stalled(Exception):
    """The old loop would never end: its step no longer moves the tick."""


def reference_ticks(lo, hi, target=5):
    """_ticks as it was before it guarded spans without a finite step.

    Where that loop hung, this copy raises Stalled with the ticks so far.
    """
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + step * 1e-9:
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:
            raise Stalled(out)
        t += step
    return out


class TestTicks:
    @pytest.mark.parametrize(
        "lo,hi",
        [(0.0, 5e-324), (-5e-324, 5e-324), (0.0, 2.5e-323), (1e308, 1e308)],
    )
    def test_a_span_whose_step_underflows_has_no_ticks(self, lo, hi):
        assert plots._ticks(lo, hi) == []

    @pytest.mark.parametrize(
        "lo,hi", [(-1e308, 1e308), (-math.inf, math.inf), (math.inf, math.inf)]
    )
    def test_an_overflowing_span_has_no_ticks(self, lo, hi):
        assert plots._ticks(lo, hi) == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_every_other_span_keeps_the_old_ticks(self, lo, hi):
        try:
            want = reference_ticks(lo, hi)
        except (ValueError, OverflowError, ZeroDivisionError):
            want = []
        except Stalled as stall:
            (want,) = stall.args
        assert plots._ticks(lo, hi) == want

    @pytest.mark.parametrize(
        "lo,hi", [(1.0, 1.0000000000000002), (1e16, 1e16 + 2.0), (-1.0, -0.9999999999999999)]
    )
    def test_a_step_lost_in_rounding_ends_the_ticks(self, lo, hi):
        with pytest.raises(Stalled) as stall:
            reference_ticks(lo, hi)
        (before,) = stall.value.args
        assert before and plots._ticks(lo, hi) == before

    def test_normal_spans_keep_their_ticks(self):
        for lo, hi in [(0.0, 1.0), (-3.5, 2.0), (1e-300, 3e-300), (-1e307, 1e307), (5.0, 5.0)]:
            got = plots._ticks(lo, hi)
            assert got and got == reference_ticks(lo, hi)

    @pytest.mark.parametrize(
        "xs,ys", [([1.0, 2.0], [1.25e16, 1.25e16]), ([2.0**60, 2.0**60], [1.0, 3.0])]
    )
    def test_a_span_lost_in_rounding_is_widened_by_an_ulp(self, xs, ys):
        series = Series("s", xs, ys)
        same_chart(series)
        svg = line_chart([series], "title", "x", "y")
        assert "nan" not in svg and "inf" not in svg

    @pytest.mark.parametrize(
        "ys", [[0.0, 5e-324], [-0.85e308, 0.85e308], [-1e308, 1e308], [-MAX, MAX], [-MAX, 0.0]]
    )
    def test_charts_of_spans_without_a_step_do_not_raise(self, ys):
        series = Series("s", [1.0, 2.0], ys)
        same_chart(series)
        svg = line_chart([series], "title", "x", "y")
        # the x axis keeps its ticks; the y axis has none
        assert svg.count('stroke="#dddddd"') == len(plots._ticks(1.0, 2.0))
        # the series is drawn, every point inside the plot
        points = svg.split('<polyline points="')[1].split('"')[0].split()
        coords = [float(c) for point in points for c in point.split(",")]
        assert len(coords) == 4 and all(math.isfinite(c) for c in coords)
        assert plots.MARGIN_T <= min(coords[1::2]) < max(coords[1::2]) <= plots.HEIGHT - plots.MARGIN_B
