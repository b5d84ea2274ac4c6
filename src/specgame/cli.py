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
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from specgame.config import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    config_errors,
    config_to_dict,
    parse_config,
    preset_config,
)
from specgame.dynamics import integrate
from specgame.game import (
    Contention,
    enumerate_nash,
    potential_maximizer,
    total_utility,
    verify_potentials,
)
from specgame.plots import (
    aggregate_chart,
    estimate_chart,
    potential_chart,
    probability_chart,
    sweep_chart,
    trials_chart,
)
from specgame.simulator import ExperimentSummary, run_experiment, run_trial, sweep, trial_rng

ODE_DT = 0.02

TRACE_CHUNK = 128  # slots of trace.csv joined and written at once

# the across-trial columns of sweep.csv, in field order
SUMMARY_FIELDS = tuple(f.name for f in fields(ExperimentSummary) if f.name != "results")

FAIR_SHARE_NOTE = (
    "potential_maximizer maximizes the ordinal potential, which follows fair "
    "sharing; this game uses slot_winner contention, so the maximizer need "
    "not be one of its equilibria"
)


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


def _load(args) -> ExperimentConfig:
    if args.config is not None and args.preset is not None:
        raise ConfigError("give --config or --preset, not both")
    if args.config is not None:
        cfg = parse_config(args.config)
    elif args.preset is not None:
        cfg = preset_config(args.preset)
    else:
        raise ConfigError("a config file (--config) or a preset (--preset) is required")
    sim_flags = {"base_seed": args.seed, "trials": args.trials, "iterations": args.iterations}
    with config_errors():
        sim = replace(cfg.sim, **{k: v for k, v in sim_flags.items() if v is not None})
        out_dir = str(args.out or cfg.out_dir)
        cfg = replace(cfg, sim=sim, out_dir=out_dir, plot=args.plot or cfg.plot)
    if args.command == "sweep" and cfg.sweep_variable is None:
        raise ConfigError("sweep: the config has no sweep section")
    return cfg


def cmd_analyze(cfg: ExperimentConfig, out: Path, args) -> int:
    game = cfg.sim.game
    profiles = enumerate_nash(game)
    aggregates = total_utility(game, profiles).tolist()
    report = verify_potentials(game)
    maximizer = None
    if game.homogeneous_theta() is not None:
        maximizer = potential_maximizer(game)
    note = maximizer is not None and game.contention is Contention.SLOT_WINNER
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
        **({"potential_note": FAIR_SHARE_NOTE} if note else {}),
        "potential_check": {
            "exhaustive": report.exhaustive,
            "deviations_checked": report.deviations_checked,
            "epg_max_abs_error": report.epg_max_abs_error,
            "opg_sign_disagreements": report.opg_sign_disagreements,
            "opg_zero_mismatches": report.opg_zero_mismatches,
        },
    }
    with open(out / "analysis.json", "w", encoding="utf-8") as fh:
        # streamed: one string of the whole document would set the peak memory
        json.dump(analysis, fh, indent=2)
        fh.write("\n")
    best = analysis["best_nash_aggregate_ec"]
    best_txt = f", best aggregate EC {best:.4f}" if best is not None else ""
    max_txt = ""
    if maximizer is not None:
        model = " (fair-share potential)" if note else ""
        max_txt = f", potential maximizer {'|'.join(map(str, maximizer))}{model}"
    print(
        f"analyze: {len(profiles)} pure NE over "
        f"{game.n_channels}^{game.n_users} profiles{best_txt}{max_txt} -> {out}"
    )
    return 0


def _reprs(values: np.ndarray) -> list[str]:
    """float.__repr__ of every entry, in C order, as _fmt writes a float."""
    return repr(values.ravel().tolist())[1:-1].split(", ")


def _write_trace(path: Path, traces) -> None:
    """trace.csv, with the bytes _write_csv would give, built column by column.

    Rows go slot by slot, then user, then channel; `payoff` is filled on the
    row of the channel the user took. Each TRACE_CHUNK slots are joined and
    written at once, which bounds the strings held in memory.
    """
    _, n, m = traces.p.shape
    cells = [f"{u},{c}" for u in range(1, n + 1) for c in range(1, m + 1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("slot,user,channel,p,q,payoff\n")
        for start in range(0, len(traces.p), TRACE_CHUNK):
            chunk = slice(start, start + TRACE_CHUNK)
            actions = traces.actions[chunk].ravel()
            payoff = np.full(actions.size * m, "", dtype=object)
            payoff[np.arange(actions.size) * m + actions - 1] = _reprs(traces.payoffs[chunk])
            slots = range(start + 1, start + len(traces.p[chunk]) + 1)
            prefix = [f"{s},{cell}" for s in slots for cell in cells]
            rows = zip(prefix, _reprs(traces.p[chunk]), _reprs(traces.q[chunk]), payoff.tolist())
            fh.write("\n".join(map(",".join, rows)) + "\n")


def _running_aggregate(payoffs: np.ndarray, thetas) -> np.ndarray:
    """Aggregate empirical capacity over slots 1..t, for every t."""
    thetas_arr = np.asarray(thetas)
    slots = np.arange(1, len(payoffs) + 1).reshape(-1, 1)
    cummean = np.cumsum(np.exp(-thetas_arr * payoffs), axis=0) / slots
    return (-np.log(cummean) / thetas_arr).sum(axis=1)


def cmd_learn(cfg: ExperimentConfig, out: Path, args) -> int:
    sim = replace(cfg.sim, collect_traces=True)
    result = run_trial(sim, 0)
    _write_trace(out / "trace.csv", result.traces)
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
    if cfg.plot:
        traces = result.traces
        (out / "probability.svg").write_text(
            probability_chart(traces.p, user=0), encoding="utf-8"
        )
        if sim.algorithm == "learn":
            (out / "estimates.svg").write_text(
                estimate_chart(traces.q, user=0), encoding="utf-8"
            )
        agg = _running_aggregate(traces.payoffs, sim.game.thetas)
        (out / "aggregate.svg").write_text(
            aggregate_chart(range(1, len(agg) + 1), agg.tolist()), encoding="utf-8"
        )
    conv = "never" if result.conv_slot is None else f"slot {result.conv_slot}"
    profile = "|".join(str(a) for a in result.profile)
    print(
        f"learn: converged {conv}, profile {profile}, "
        f"aggregate EC {result.agg_ec_closed:.4f} -> {out}"
    )
    return 0


def cmd_experiment(cfg: ExperimentConfig, out: Path, args) -> int:
    sim = cfg.sim
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
    if args.trace:
        traced = run_trial(replace(sim, collect_traces=True), 0)
        _write_trace(out / "trace.csv", traced.traces)
    if cfg.plot:
        results = summary.results
        (out / "aggregate_ec.svg").write_text(
            trials_chart(
                [r.trial for r in results],
                [r.agg_ec_closed for r in results],
                [r.agg_ec_empirical for r in results],
            ),
            encoding="utf-8",
        )
    print(
        f"experiment: {sim.trials} trials, convergence rate "
        f"{summary.convergence_rate:.3f}, aggregate EC "
        f"{summary.mean_agg_closed:.4f} +/- {summary.std_agg_closed:.4f} -> {out}"
    )
    return 0


def cmd_sweep(cfg: ExperimentConfig, out: Path, args) -> int:
    points = sweep(cfg.sim, cfg.sweep_variable, cfg.sweep_values)
    _write_csv(
        out / "sweep.csv",
        ("variable", "value", "trials", *SUMMARY_FIELDS),
        (
            (
                pt.variable,
                pt.value,
                len(pt.summary.results),
                *(getattr(pt.summary, name) for name in SUMMARY_FIELDS),
            )
            for pt in points
        ),
    )
    if cfg.plot:
        (out / "sweep.svg").write_text(
            sweep_chart(
                cfg.sweep_variable,
                [pt.value for pt in points],
                [pt.summary.mean_agg_closed for pt in points],
                [pt.summary.std_agg_closed for pt in points],
            ),
            encoding="utf-8",
        )
    values = ", ".join(_fmt(pt.value) for pt in points)
    print(
        f"sweep: {cfg.sweep_variable} over [{values}], "
        f"{len(points)} experiments -> {out}"
    )
    return 0


def cmd_ode(cfg: ExperimentConfig, out: Path, args) -> int:
    game = cfg.sim.game
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
    if cfg.plot:
        (out / "potential.svg").write_text(
            potential_chart(
                range(len(traj.potentials)),
                traj.potentials.tolist(),
                traj.max_rhs.tolist(),
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
        sp.add_argument("--out", type=Path, help="output directory")
        sp.set_defaults(func=func)
        if name == "experiment":
            sp.add_argument(
                "--trace", action="store_true", help="also trace trial 0 to trace.csv"
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        text = json.dumps(config_to_dict(cfg), indent=2) + "\n"
        (out / "resolved_config.json").write_text(text, encoding="utf-8")
        return args.func(cfg, out, args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
