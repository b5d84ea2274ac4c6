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
import functools
import json
import math
import sys
from dataclasses import fields, replace
from itertools import chain
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
    TIE_TOL,
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

# Rows of a CSV, and items of a list in analysis.json, formatted and written at
# once: one string of a whole file would set the command's peak memory.
CSV_ROWS = 4096
JSON_ITEMS = 1024

# the across-trial columns of sweep.csv, in field order
SUMMARY_FIELDS = tuple(f.name for f in fields(ExperimentSummary) if f.name != "results")

FAIR_SHARE_NOTE = (
    "potential_maximizer maximizes the ordinal potential, which follows fair "
    "sharing; this game uses slot_winner contention, so the maximizer need "
    "not be one of its equilibria"
)


def _reprs(values: np.ndarray) -> list[str]:
    """float.__repr__ of each entry of a float array, in C order, NaN left empty.

    An entry with the same bits as the one before it along axis 0 (the slot
    axis of trace columns) reuses that entry's string instead of formatting
    its own, through an index that np.maximum.accumulate carries down axis 0.
    With no such repeat, the whole array goes through one tolist().
    """
    flat = values.ravel()
    if len(values) > 1:
        bits = values.view(np.int64)
        same = bits[1:] == bits[:-1]
        if same.any():
            index = np.arange(flat.size)
            source = index.reshape(values.shape).copy()
            source[1:][same] = 0
            source = np.maximum.accumulate(source, axis=0).ravel()
            new = source == index
            cells = np.empty(flat.size, dtype=object)
            cells[new] = _reprs(flat[new])
            return cells[source].tolist()
    known = ~np.isnan(flat)
    if known.all():
        return repr(flat.tolist())[1:-1].split(", ")
    cells = np.full(flat.size, "", dtype=object)
    # with no known entry the split gives [""], which fills no cell
    cells[known] = repr(flat[known].tolist())[1:-1].split(", ")
    return cells.tolist()


def _cells(column) -> list[str]:
    """The CSV cells of one column, formatted column-wise.

    A float array gives _reprs of its entries, with NaN, a missing value,
    left empty; an integer array gives str of each entry. A list holds str,
    int or None, and None is left empty. Cells are never quoted, so none may
    hold a comma, a quote or a line break.
    """
    if not isinstance(column, np.ndarray):
        cells = ["" if v is None else str(v) for v in column]
        if not set(',"\r\n').isdisjoint("".join(cells)):
            raise ValueError(f"CSV cells would need quoting: {cells!r}")
        return cells
    if column.dtype.kind not in "iu":
        return _reprs(column)
    values = column.ravel()
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= values.size:
        return list(map(str, values.tolist()))
    # a narrow range (slots, users, channels): each value formatted once
    table = np.array(list(map(str, range(lo, hi + 1))), dtype=object)
    return table[values - lo].tolist()


def _write_csv(path: Path, header, columns) -> None:
    """A CSV with one row per entry of the columns, built column by column.

    The columns are arrays or lists of one shape; rows follow its entries in
    C order. About CSV_ROWS rows, a run along the first axis, are formatted
    and written at once.
    """
    step = max(1, CSV_ROWS // math.prod(np.shape(columns[0])[1:]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), step):
            cells = [_cells(column[start : start + step]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


_SCALARS = {int, float, bool, type(None)}


def _json_items(items) -> str:
    """List items two levels deep, each on its lines as indent=2 writes them.

    Finite floats are their _reprs, which reuse the string of an item equal
    bit for bit to the one before it. Other numbers, and lists of numbers, go
    through the C encoder and are indented by replacing its separators, which
    no number contains; anything else, strings above all, is encoded item by
    item with indent=2.
    """
    kinds = set(map(type, items))
    if kinds == {float}:
        values = np.array(items)
        if np.isfinite(values).all():
            return ",\n    ".join(_reprs(values))
    if kinds <= _SCALARS:
        return json.dumps(items)[1:-1].replace(", ", ",\n    ")
    if (
        kinds <= {list, tuple}
        and all(items)
        and set(map(type, chain.from_iterable(items))) <= _SCALARS
    ):
        rows = json.dumps(items)[2:-2].replace("], [", "\n    ],\n    [\n      ")
        return "[\n      " + rows.replace(", ", ",\n      ") + "\n    ]"
    return ",\n    ".join(json.dumps(item, indent=2).replace("\n", "\n    ") for item in items)


def _write_json(path: Path, doc: dict[str, object]) -> None:
    """The bytes of json.dumps(doc, indent=2) and a newline, one key at a time.

    json.dumps with an indent always runs the pure-Python encoder, one write
    per token. Here a list is written JSON_ITEMS items at a time through
    _json_items, and any other value is json.dumps(value, indent=2) shifted
    one level.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(doc.items()):
            fh.write(f"{',' if i else ''}\n  {json.dumps(key)}: ")
            if isinstance(value, (list, tuple)) and value:
                fh.write("[\n    ")
                for start in range(0, len(value), JSON_ITEMS):
                    fh.write(",\n    " if start else "")
                    fh.write(_json_items(value[start : start + JSON_ITEMS]))
                fh.write("\n  ]")
            else:
                fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
        fh.write("\n}\n" if doc else "}\n")


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
    best, best_profile = None, None
    if profiles:
        # equilibria of equal welfare differ in rounding only: take the first,
        # in enumerate_nash's lexicographic order, within TIE_TOL of the best
        best = max(aggregates)
        floor = best - TIE_TOL * abs(best)
        best_profile = next(p for p, a in zip(profiles, aggregates) if a >= floor)
    analysis = {
        "n_users": game.n_users,
        "n_channels": game.n_channels,
        "contention": game.contention.value,
        "thetas": game.thetas,
        "nash_count": len(profiles),
        "nash_profiles": profiles,
        "nash_aggregate_ec": aggregates,
        "best_nash_profile": best_profile,
        "best_nash_aggregate_ec": best,
        "potential_maximizer": maximizer,
        **({"potential_note": FAIR_SHARE_NOTE} if note else {}),
        "potential_check": {
            "exhaustive": report.exhaustive,
            "deviations_checked": report.deviations_checked,
            "epg_max_abs_error": report.epg_max_abs_error,
            "opg_sign_disagreements": report.opg_sign_disagreements,
            "opg_zero_mismatches": report.opg_zero_mismatches,
        },
    }
    _write_json(out / "analysis.json", analysis)
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


def _write_trace(path: Path, traces) -> None:
    """trace.csv: rows by slot, then user, then channel; `payoff` is filled on
    the row of the channel the user took and empty (NaN) on the others."""
    shape = traces.p.shape
    payoff = np.full(shape, np.nan)
    np.put_along_axis(payoff, traces.actions[..., None] - 1, traces.payoffs[..., None], axis=2)
    _write_csv(
        path,
        ("slot", "user", "channel", "p", "q", "payoff"),
        (
            np.broadcast_to(np.arange(1, shape[0] + 1)[:, None, None], shape),
            np.broadcast_to(np.arange(1, shape[1] + 1)[:, None], shape),
            np.broadcast_to(np.arange(1, shape[2] + 1), shape),
            traces.p,
            traces.q,
            payoff,
        ),
    )


def _running_aggregate(payoffs: np.ndarray, thetas) -> np.ndarray:
    """Aggregate empirical capacity over slots 1..t, for every t, with the sums
    of exp(-theta r) kept in log space so that no prefix sum underflows."""
    thetas_arr = np.asarray(thetas)
    log_sums = np.logaddexp.accumulate(-thetas_arr * payoffs, axis=0)
    log_slots = np.log(np.arange(1, len(payoffs) + 1))[:, None]
    return (-(log_sums - log_slots) / thetas_arr).sum(axis=1)


def cmd_learn(cfg: ExperimentConfig, out: Path, args) -> int:
    sim = cfg.sim
    result = run_trial(sim, 0)
    _write_trace(out / "trace.csv", result.traces)
    _write_csv(
        out / "users.csv",
        ("user", "channel", "p_max", "ec_closed_form", "ec_empirical"),
        (
            np.arange(1, sim.game.n_users + 1),
            np.array(result.profile),
            result.traces.p[-1].max(axis=1),
            np.array(result.ec_closed),
            np.array(result.ec_empirical),
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
            aggregate_chart(np.arange(1, len(agg) + 1), agg), encoding="utf-8"
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
    results = summary.results
    trial_ids = np.array([r.trial for r in results])
    _write_csv(
        out / "trials.csv",
        ("trial", "conv_slot", "agg_ec_closed", "agg_ec_empirical", "profile"),
        (
            trial_ids,
            [r.conv_slot for r in results],
            np.array([r.agg_ec_closed for r in results]),
            np.array([r.agg_ec_empirical for r in results]),
            ["|".join(map(str, r.profile)) for r in results],
        ),
    )
    shape = (len(results), sim.game.n_users)
    _write_csv(
        out / "users.csv",
        ("trial", "user", "channel", "ec_closed_form", "ec_empirical"),
        (
            np.broadcast_to(trial_ids[:, None], shape),
            np.broadcast_to(np.arange(1, shape[1] + 1), shape),
            np.array([r.profile for r in results]),
            np.array([r.ec_closed for r in results]),
            np.array([r.ec_empirical for r in results]),
        ),
    )
    if args.trace:
        _write_trace(out / "trace.csv", run_trial(sim, 0).traces)
    if cfg.plot:
        (out / "aggregate_ec.svg").write_text(
            trials_chart(
                [r.trial for r in results],
                [r.agg_ec_closed for r in results],
                [r.agg_ec_empirical for r in results],
            ),
            encoding="utf-8",
        )
    rate = summary.convergence_rate
    print(
        f"experiment: {sim.trials} trials, convergence rate "
        f"{'n/a' if math.isnan(rate) else f'{rate:.3f}'}, aggregate EC "
        f"{summary.mean_agg_closed:.4f} +/- {summary.std_agg_closed:.4f} -> {out}"
    )
    return 0


def cmd_sweep(cfg: ExperimentConfig, out: Path, args) -> int:
    points = sweep(cfg.sim, cfg.sweep_variable, cfg.sweep_values)
    _write_csv(
        out / "sweep.csv",
        ("variable", "value", "trials", *SUMMARY_FIELDS),
        (
            [pt.variable for pt in points],
            np.array([pt.value for pt in points]),
            np.array([len(pt.summary.results) for pt in points]),
            # NaN and a mean_conv_slot of None become empty cells
            *(
                np.array([getattr(pt.summary, name) for pt in points], dtype=float)
                for name in SUMMARY_FIELDS
            ),
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
    values = ", ".join(repr(pt.value) for pt in points)
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
            np.arange(len(traj.potentials)),
            traj.potentials,  # NaN, an empty cell, without a common exponent
            traj.max_rhs,
            *traj.strategies.reshape(len(traj.potentials), -1).T,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Each subcommand's handler is bound when the parser is first built.
    """
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
        _write_json(out / "resolved_config.json", config_to_dict(cfg))
        return args.func(cfg, out, args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
