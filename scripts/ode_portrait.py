"""Replicator-flow portrait for a small random instance.

Draws a homogeneous game, integrates the mixed-strategy flow from a batch
of interior starts, and reports which pure equilibrium each start settles
on. Optionally writes an SVG overlaying the potential curve of every run.
"""

import argparse

import numpy as np

from specgame.channels import ChannelSpec
from specgame.dynamics import integrate
from specgame.game import GameSpec, enumerate_nash
from specgame.plots import Series, line_chart


def random_instance(rng, n_users, n_channels, theta):
    channels = []
    for m in range(1, n_channels + 1):
        k = int(rng.integers(2, 5))
        channels.append(
            ChannelSpec(
                id=m,
                rates=tuple(np.cumsum(rng.uniform(0.05, 2.0, size=k))),
                probs=tuple(rng.dirichlet(np.ones(k))),
            )
        )
    return GameSpec(thetas=(theta,) * n_users, channels=tuple(channels))


def tv_to_vertex(p, profile):
    eye = np.eye(p.shape[1])
    return max(
        0.5 * float(np.abs(p[n] - eye[profile[n] - 1]).sum())
        for n in range(p.shape[0])
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--users", type=int, default=3)
    ap.add_argument("--channels", type=int, default=2)
    ap.add_argument("--theta", type=float, default=0.1)
    ap.add_argument("--starts", type=int, default=12)
    ap.add_argument("--steps", type=int, default=4000)
    ap.add_argument("--svg", help="write overlaid potential curves to this path")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    game = random_instance(rng, args.users, args.channels, args.theta)
    equilibria = enumerate_nash(game, payoff="surrogate")
    print(f"{len(equilibria)} pure equilibria: {equilibria}")

    basins = {}
    unresolved = 0
    curves = []
    stride = max(1, args.steps // 400)
    starts = np.stack(
        [rng.dirichlet(np.ones(args.channels), size=args.users) for _ in range(args.starts)]
    )
    traj = integrate(game, starts, dt=0.02, steps=args.steps)  # every start at once
    for s, final in enumerate(traj.final):
        nearest = min(equilibria, key=lambda prof: tv_to_vertex(final, prof))
        if tv_to_vertex(final, nearest) <= 0.05:
            basins[nearest] = basins.get(nearest, 0) + 1
        else:
            unresolved += 1
        xs = range(0, args.steps + 1, stride)
        curves.append(
            Series(label=f"start {s}", xs=list(xs), ys=traj.potentials[::stride, s])
        )

    for prof in equilibria:
        print(f"  {prof}: {basins.get(prof, 0)} starts")
    if unresolved:
        print(f"  unresolved after {args.steps} steps: {unresolved}")

    if args.svg:
        svg = line_chart(
            curves, title="potential along the flow", x_label="step", y_label="potential"
        )
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}")


if __name__ == "__main__":
    main()
