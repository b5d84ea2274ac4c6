"""Static SVG line charts.

Written by hand instead of through a plotting library so the output is a
pure function of the input numbers: the same values render to the same
bytes whether they come from memory or are parsed back from the CSVs the
commands write (`repr` floats round-trip exactly), which the artifact tests
rely on. Only positional text and polylines are used; no fonts are embedded
and no scripts are emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

WIDTH = 720
HEIGHT = 440
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 40
MARGIN_B = 48


@dataclass(frozen=True)
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 step.

    No ticks when no such step is a positive finite float: when the span
    overflows, or is so small that its step underflows to zero. The ticks
    stop early where the step is lost in rounding, below half an ulp of
    the tick it is added to.
    """
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    if not 0.0 < raw < math.inf:
        return []
    mag = 10.0 ** math.floor(math.log10(raw))
    if mag == 0.0:
        return []
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
            break
        t += step
    return out


def _num(x: float) -> str:
    return f"{x:g}"


def _coord(x: float) -> str:
    return f"{x:.2f}"


# a polyline point: both coordinates as _coord writes them
_POINT = "%.2f,%.2f"


def line_chart(
    series: Sequence[Series],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """A fixed-size line chart; returns the SVG document as a string.

    Points where x or y is not finite are left out. Each series is filtered,
    bounded and scaled as numpy arrays, by the same IEEE operations in the
    same order as a single point, so a coordinate's bits do not depend on
    which path computed it.
    """
    finite = []
    for s in series:
        n = min(len(s.xs), len(s.ys))
        xs = np.asarray(s.xs, dtype=float)[:n]
        ys = np.asarray(s.ys, dtype=float)[:n]
        keep = np.isfinite(xs) & np.isfinite(ys)
        finite.append((xs[keep], ys[keep]))
    if not any(xs.size for xs, _ in finite):
        raise ValueError("nothing to plot: every point is missing or non-finite")
    all_x = np.concatenate([xs for xs, _ in finite])
    all_y = np.concatenate([ys for _, ys in finite])
    # on a tie of 0.0 and -0.0 a bound may take either sign, unlike min() and
    # max(), which keep the first; no coordinate or tick depends on that sign
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
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
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # a float or an array of them
    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + (y_hi - y_unit * y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{_coord(x)}" y1="{MARGIN_T}" x2="{_coord(x)}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_coord(x)}" y="{HEIGHT - MARGIN_B + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_num(t)}</text>"
        )
    # ticks cover the bounds in units of y, where a span in quarters
    # overflows and so gets no ticks
    for t in _ticks(y_lo / y_unit, y_hi / y_unit):
        y = sy(t)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{_coord(y)}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{_coord(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_coord(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_num(t)}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for i, (s, (xs, ys)) in enumerate(zip(series, finite)):
        color = PALETTE[i % len(PALETTE)]
        if xs.size:
            points = zip(sx(xs).tolist(), sy(ys).tolist())
            coords = " ".join(map(_POINT.__mod__, points))
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = MARGIN_T + 14 + 16 * i
        lx = WIDTH - MARGIN_R - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{s.label}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{x_label}</text>"
    )
    parts.append(
        f'<text x="16" y="{MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h // 2})">{y_label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def probability_chart(p, user: int) -> str:
    """Per-channel selection probabilities of one user over slots.

    `p` is a [slots, N, M] array holding the post-update strategies.
    """
    return _per_channel_chart(
        p, user, f"Channel selection probabilities, user {user + 1}", "probability"
    )


def estimate_chart(q, user: int) -> str:
    """Per-channel payoff estimates of one user over slots, from [slots, N, M]."""
    return _per_channel_chart(q, user, f"Payoff estimates, user {user + 1}", "estimate")


def _per_channel_chart(values, user, title, y_label) -> str:
    slots = np.arange(1, len(values) + 1)
    series = [
        Series(label=f"channel {m + 1}", xs=slots, ys=values[:, user, m])
        for m in range(values.shape[2])
    ]
    return line_chart(series, title, "slot", y_label)


def aggregate_chart(slots, aggregates) -> str:
    """Running aggregate capacity estimate over slots."""
    return line_chart(
        [Series(label="aggregate", xs=slots, ys=aggregates)],
        "Aggregate effective capacity",
        "slot",
        "packets per slot",
    )


def trials_chart(trials, closed, empirical) -> str:
    """Per-trial aggregate capacities, closed form and empirical."""
    return line_chart(
        [
            Series(label="closed form", xs=list(trials), ys=list(closed)),
            Series(label="empirical", xs=list(trials), ys=list(empirical)),
        ],
        "Aggregate effective capacity by trial",
        "trial",
        "packets per slot",
    )


def sweep_chart(variable: str, values, means, stds) -> str:
    """Mean aggregate capacity against the swept variable, with a +/- band."""
    mean_s = Series(label="mean", xs=list(values), ys=list(means))
    hi = Series(
        label="mean + std",
        xs=list(values),
        ys=[m + s for m, s in zip(means, stds)],
    )
    lo = Series(
        label="mean - std",
        xs=list(values),
        ys=[m - s for m, s in zip(means, stds)],
    )
    return line_chart(
        [mean_s, hi, lo],
        f"Aggregate effective capacity vs {variable}",
        variable,
        "packets per slot",
    )


def potential_chart(steps, potentials, max_rhs) -> str:
    """Potential value along an integrated trajectory."""
    series = [Series(label="potential", xs=list(steps), ys=list(potentials))]
    finite = [v for v in potentials if math.isfinite(v)]
    if not finite:
        # heterogeneous exponents: no potential, show the motion instead
        series = [Series(label="max |dP/dt|", xs=list(steps), ys=list(max_rhs))]
    return line_chart(series, "Flow diagnostics", "step", "value")
