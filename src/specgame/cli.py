"""Command-line entry point.

Five subcommands share one config pipeline: `analyze` inspects the one-shot
game, `learn` traces a single run, `experiment` runs seeded independent
trials, `sweep` repeats an experiment along one variable, and `ode`
integrates the mean-field flow. Every command writes its artifacts (CSV,
JSON, optional SVG) into the output directory and prints a one-line summary.

Exit codes: 0 on success, 1 on runtime failure, 2 on bad usage or config.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from specgame.config import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    config_to_dict,
    parse_config,
    preset_config,
)
from specgame.dynamics import integrate
from specgame.game import enumerate_nash, ordinal_potential, utility, verify_potentials
from specgame.plots import (
    aggregate_chart,
    estimate_chart,
    potential_chart,
    probability_chart,
    sweep_chart,
    trials_chart,
)
from specgame.simulator import run_experiment, run_trial, sweep, trial_rng

ODE_DT = 0.02

NASH_SCAN_CAP = 100_000


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _write_resolved(cfg: ExperimentConfig, out: Path) -> None:
    text = json.dumps(config_to_dict(cfg), indent=2) + "\n"
    (out / "resolved_config.json").write_text(text, encoding="utf-8")


def _load(args) -> ExperimentConfig:
    if args.config is not None and args.preset is not None:
        raise ConfigError("give --config or --preset, not both")
    if args.config is not None:
        cfg = parse_config(args.config)
    elif args.preset is not None:
        cfg = preset_config(args.preset)
    else:
        raise ConfigError("a config file (--config) or a preset (--preset) is required")
    sim = cfg.sim
    if args.seed is not None:
        sim = replace(sim, base_seed=args.seed)
    if args.trials is not None:
        sim = replace(sim, trials=args.trials)
    if args.iterations is not None:
        sim = replace(sim, iterations=args.iterations)
    cfg = replace(cfg, sim=sim)
    if args.out is not None:
        cfg = replace(cfg, out_dir=str(args.out))
    if args.plot:
        cfg = replace(cfg, plot=True)
    return cfg


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_analyze(args) -> int:
    cfg = _load(args)
    game = cfg.sim.game
    out = _out_dir(cfg)
    profiles = enumerate_nash(game)
    aggregates = [
        sum(utility(game, p, u) for u in range(game.n_users)) for p in profiles
    ]
    report = verify_potentials(game, rng=np.random.default_rng(cfg.sim.base_seed))
    maximizer = None
    if (
        game.homogeneous_theta() is not None
        and game.n_channels**game.n_users <= NASH_SCAN_CAP
    ):
        maximizer = max(
            itertools.product(range(1, game.n_channels + 1), repeat=game.n_users),
            key=lambda p: ordinal_potential(game, p),
        )
    analysis = {
        "n_users": game.n_users,
        "n_channels": game.n_channels,
        "contention": game.contention.value,
        "thetas": list(game.thetas),
        "nash_count": len(profiles),
        "nash_profiles": [list(p) for p in profiles],
        "nash_aggregate_ec": aggregates,
        "best_nash_profile": list(max(zip(aggregates, profiles))[1]) if profiles else None,
        "best_nash_aggregate_ec": max(aggregates) if aggregates else None,
        "potential_maximizer": list(maximizer) if maximizer else None,
        "potential_check": {
            "exhaustive": report.exhaustive,
            "deviations_checked": report.deviations_checked,
            "epg_max_abs_error": report.epg_max_abs_error,
            "opg_sign_disagreements": report.opg_sign_disagreements,
            "opg_zero_mismatches": report.opg_zero_mismatches,
        },
    }
    (out / "analysis.json").write_text(
        json.dumps(analysis, indent=2) + "\n", encoding="utf-8"
    )
    _write_resolved(cfg, out)
    best = analysis["best_nash_aggregate_ec"]
    best_txt = f", best aggregate EC {best:.4f}" if best is not None else ""
    print(
        f"analyze: {len(profiles)} pure NE over "
        f"{game.n_channels}^{game.n_users} profiles{best_txt} -> {out}"
    )
    return 0


def _trace_rows(traces, thetas):
    slots, n, m = traces.p.shape
    for slot in range(slots):
        for user in range(n):
            action = int(traces.actions[slot, user])
            for channel in range(1, m + 1):
                payoff = (
                    float(traces.payoffs[slot, user]) if channel == action else None
                )
                yield (
                    slot + 1,
                    user + 1,
                    channel,
                    float(traces.p[slot, user, channel - 1]),
                    float(traces.q[slot, user, channel - 1]),
                    payoff,
                )


def _aggregate_series(rows, thetas):
    """Running aggregate empirical capacity from trace rows."""
    n = len(thetas)
    slots = max(int(r["slot"]) for r in rows)
    payoff = np.zeros((slots, n))
    for r in rows:
        if r["payoff"]:
            payoff[int(r["slot"]) - 1, int(r["user"]) - 1] = float(r["payoff"])
    thetas_arr = np.asarray(thetas)
    cummean = np.cumsum(np.exp(-thetas_arr * payoff), axis=0) / np.arange(
        1, slots + 1
    ).reshape(-1, 1)
    agg = (-np.log(cummean) / thetas_arr).sum(axis=1)
    return list(range(1, slots + 1)), agg.tolist()


def cmd_learn(args) -> int:
    cfg = _load(args)
    sim = replace(cfg.sim, collect_traces=True)
    out = _out_dir(cfg)
    result = run_trial(sim, 0)
    _write_csv(
        out / "trace.csv",
        ("slot", "user", "channel", "p", "q", "payoff"),
        _trace_rows(result.traces, sim.game.thetas),
    )
    final_p = result.traces.p[-1]
    _write_csv(
        out / "users.csv",
        ("user", "channel", "p_max", "ec_closed_form", "ec_empirical"),
        (
            (
                u + 1,
                result.profile[u],
                float(final_p[u].max()),
                result.ec_closed[u],
                result.ec_empirical[u],
            )
            for u in range(sim.game.n_users)
        ),
    )
    _write_resolved(cfg, out)
    if cfg.plot:
        rows = _read_csv(out / "trace.csv")
        (out / "probability.svg").write_text(
            probability_chart(rows, user=0), encoding="utf-8"
        )
        if sim.algorithm == "learn":
            (out / "estimates.svg").write_text(
                estimate_chart(rows, user=0), encoding="utf-8"
            )
        slots, agg = _aggregate_series(rows, sim.game.thetas)
        (out / "aggregate.svg").write_text(
            aggregate_chart(slots, agg), encoding="utf-8"
        )
    conv = "never" if result.conv_slot is None else f"slot {result.conv_slot}"
    profile = "|".join(str(a) for a in result.profile)
    print(
        f"learn: converged {conv}, profile {profile}, "
        f"aggregate EC {result.agg_ec_closed:.4f} -> {out}"
    )
    return 0


def cmd_experiment(args) -> int:
    cfg = _load(args)
    sim = cfg.sim
    out = _out_dir(cfg)
    summary = run_experiment(sim)
    _write_csv(
        out / "trials.csv",
        ("trial", "conv_slot", "agg_ec_closed", "agg_ec_empirical", "profile"),
        (
            (
                r.trial,
                r.conv_slot,
                r.agg_ec_closed,
                r.agg_ec_empirical,
                "|".join(str(a) for a in r.profile),
            )
            for r in summary.results
        ),
    )
    _write_csv(
        out / "users.csv",
        ("trial", "user", "channel", "ec_closed_form", "ec_empirical"),
        (
            (r.trial, u + 1, r.profile[u], r.ec_closed[u], r.ec_empirical[u])
            for r in summary.results
            for u in range(sim.game.n_users)
        ),
    )
    _write_resolved(cfg, out)
    if args.trace:
        traced = run_trial(replace(sim, collect_traces=True), 0)
        _write_csv(
            out / "trace.csv",
            ("slot", "user", "channel", "p", "q", "payoff"),
            _trace_rows(traced.traces, sim.game.thetas),
        )
    if cfg.plot:
        rows = _read_csv(out / "trials.csv")
        (out / "aggregate_ec.svg").write_text(
            trials_chart(
                [int(r["trial"]) for r in rows],
                [float(r["agg_ec_closed"]) for r in rows],
                [float(r["agg_ec_empirical"]) for r in rows],
            ),
            encoding="utf-8",
        )
    print(
        f"experiment: {sim.trials} trials, convergence rate "
        f"{summary.convergence_rate:.3f}, aggregate EC "
        f"{summary.mean_agg_closed:.4f} +/- {summary.std_agg_closed:.4f} -> {out}"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if cfg.sweep_variable is None:
        raise ConfigError("sweep: the config has no sweep section")
    out = _out_dir(cfg)
    points = sweep(cfg.sim, cfg.sweep_variable, cfg.sweep_values)
    _write_csv(
        out / "sweep.csv",
        (
            "variable",
            "value",
            "trials",
            "mean_agg_closed",
            "std_agg_closed",
            "mean_agg_empirical",
            "std_agg_empirical",
            "convergence_rate",
            "mean_conv_slot",
        ),
        (
            (
                pt.variable,
                pt.value,
                len(pt.summary.results),
                pt.summary.mean_agg_closed,
                pt.summary.std_agg_closed,
                pt.summary.mean_agg_empirical,
                pt.summary.std_agg_empirical,
                pt.summary.convergence_rate,
                pt.summary.mean_conv_slot,
            )
            for pt in points
        ),
    )
    _write_resolved(cfg, out)
    if cfg.plot:
        rows = _read_csv(out / "sweep.csv")
        (out / "sweep.svg").write_text(
            sweep_chart(
                cfg.sweep_variable,
                [float(r["value"]) for r in rows],
                [float(r["mean_agg_closed"]) for r in rows],
                [float(r["std_agg_closed"]) for r in rows],
            ),
            encoding="utf-8",
        )
    values = ", ".join(_fmt(pt.value) for pt in points)
    print(
        f"sweep: {cfg.sweep_variable} over [{values}], "
        f"{len(points)} experiments -> {out}"
    )
    return 0


def cmd_ode(args) -> int:
    cfg = _load(args)
    game = cfg.sim.game
    out = _out_dir(cfg)
    rng = trial_rng(cfg.sim.base_seed, 0)
    start = rng.dirichlet(np.ones(game.n_channels), size=game.n_users) * 0.9 + 0.05
    start /= start.sum(axis=1, keepdims=True)
    traj = integrate(game, start, dt=ODE_DT, steps=cfg.sim.iterations)
    p_cols = [
        f"p_{u + 1}_{m + 1}"
        for u in range(game.n_users)
        for m in range(game.n_channels)
    ]
    _write_csv(
        out / "ode.csv",
        ("step", "phi", "max_rhs", *p_cols),
        (
            (
                step,
                None if math.isnan(traj.potentials[step]) else traj.potentials[step],
                traj.max_rhs[step],
                *traj.strategies[step].ravel(),
            )
            for step in range(len(traj.potentials))
        ),
    )
    _write_resolved(cfg, out)
    if cfg.plot:
        rows = _read_csv(out / "ode.csv")
        (out / "potential.svg").write_text(
            potential_chart(
                [int(r["step"]) for r in rows],
                [float(r["phi"]) if r["phi"] else math.nan for r in rows],
                [float(r["max_rhs"]) for r in rows],
            ),
            encoding="utf-8",
        )
    phi_txt = ""
    if not math.isnan(traj.potentials[0]):
        phi_txt = (
            f", potential {traj.potentials[0]:.6f} -> {traj.potentials[-1]:.6f}"
        )
    print(
        f"ode: {cfg.sim.iterations} steps at dt={ODE_DT}{phi_txt}, "
        f"final max|dP/dt| {traj.max_rhs[-1]:.3e} -> {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgame",
        description="Multi-user channel selection with statistical QoS targets:"
        " game analysis, stochastic learning, and mean-field diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "analyze": (cmd_analyze, "enumerate pure equilibria and check potentials"),
        "learn": (cmd_learn, "trace a single learning run slot by slot"),
        "experiment": (cmd_experiment, "run seeded independent trials"),
        "sweep": (cmd_sweep, "repeat an experiment along one variable"),
        "ode": (cmd_ode, "integrate the mean-field flow of the learner"),
    }
    for name, (func, help_txt) in commands.items():
        sp = sub.add_parser(name, help=help_txt)
        sp.add_argument("--config", type=Path, help="JSON config file")
        sp.add_argument(
            "--preset", choices=sorted(PRESETS), help="named built-in config"
        )
        sp.add_argument("--seed", type=int, help="override base_seed")
        sp.add_argument("--trials", type=int, help="override trial count")
        sp.add_argument(
            "--iterations", type=int, help="override slots (or ODE steps)"
        )
        sp.add_argument("--plot", action="store_true", help="also render SVG charts")
        sp.add_argument(
            "--trace", action="store_true", help="write per-slot trace CSV"
        )
        sp.add_argument("--out", type=Path, help="output directory")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
