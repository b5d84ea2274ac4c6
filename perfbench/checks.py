"""Output checks for the benchmark's workloads.

Each check reads what one CLI command wrote, recomputes what it can with
`oracle`, and raises CheckError naming the first disagreement. No check
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import oracle

TOL = 1e-9
# Largest drop of the potential between two ODE steps that still counts
# as ascent.
PHI_DROP_TOL = 1e-6


class CheckError(AssertionError):
    """An output disagrees with the reference or breaks a stated property."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(actual: float, expected: float, what: str, tol: float = TOL) -> None:
    _require(
        abs(actual - expected) <= tol,
        f"{what}: got {actual!r}, reference {expected!r} (tolerance {tol})",
    )


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# --- experiment ----------------------------------------------------------------


def check_experiment(out: Path, game: oracle.Game, slots: int, algorithm: str) -> float:
    """Check trials.csv and users.csv of one `experiment`; return the mean aggregate.

    Per user, the closed-form capacity must equal the reference and lie in
    [0, mean rate share]; per trial, the aggregate must be their sum. A
    learner's conv_slot is empty or in 1..slots; the fixed random baseline
    keeps one profile from the start and reports 0.
    """
    trials = _rows(out / "trials.csv")
    users = _rows(out / "users.csv")
    _require(len(trials) >= 1, f"{out}/trials.csv has no rows")
    _require(
        len(users) == len(trials) * game.n_users,
        f"{out}/users.csv has {len(users)} rows for {len(trials)} trials",
    )
    aggregates = []
    for t, row in enumerate(trials):
        _require(int(row["trial"]) == t, f"trial rows out of order at {t}")
        profile = [int(a) for a in row["profile"].split("|")]
        _require(len(profile) == game.n_users, f"trial {t}: profile {row['profile']}")
        conv = row["conv_slot"]
        if algorithm == "random":
            _require(conv == "0", f"trial {t}: fixed random baseline conv_slot {conv!r}")
        else:
            _require(
                conv == "" or 1 <= int(conv) <= slots,
                f"trial {t}: conv_slot {conv!r} outside 1..{slots}",
            )
        expected = []
        for u in range(game.n_users):
            urow = users[t * game.n_users + u]
            _require(
                int(urow["trial"]) == t and int(urow["user"]) == u + 1,
                f"users.csv row for trial {t} user {u + 1} is missing",
            )
            _require(int(urow["channel"]) == profile[u], f"trial {t} user {u + 1}: channel")
            got = float(urow["ec_closed_form"])
            bound = oracle.mean_share(game, profile, u)
            _require(
                -TOL <= got <= bound + TOL,
                f"trial {t} user {u + 1}: capacity {got!r} outside [0, {bound!r}]",
            )
            ref = oracle.user_capacity(game, profile, u)
            _close(got, ref, f"trial {t} user {u + 1} ec_closed_form")
            expected.append(ref)
        agg = float(row["agg_ec_closed"])
        _close(agg, math.fsum(expected), f"trial {t} agg_ec_closed")
        aggregates.append(agg)
    return math.fsum(aggregates) / len(aggregates)


def check_learning_beats_random(learned_mean: float, random_mean: float) -> None:
    _require(
        learned_mean > random_mean,
        f"learned mean aggregate {learned_mean!r} <= random {random_mean!r}",
    )


def check_trial_prefix(full: Path, fewer: Path) -> None:
    """The rows of the shorter rerun equal the same trials' rows in the full run."""
    for name in ("trials.csv", "users.csv"):
        short = (fewer / name).read_text(encoding="utf-8").splitlines()
        long = (full / name).read_text(encoding="utf-8").splitlines()
        _require(len(short) > 1, f"{fewer / name} has no rows")
        _require(
            short == long[: len(short)],
            f"{name}: a rerun with fewer trials changed the rows of the first trials",
        )


# --- learn with traces -------------------------------------------------------

_CONVERGED = re.compile(r"converged (never|slot (\d+))")


def check_learn_trace(
    out: Path, game: oracle.Game, slots: int, epsilon: float, stdout: str
) -> None:
    """Check trace.csv, users.csv and the SVG charts of one `learn --plot`.

    The convergence slot is recomputed from the traced strategies, and the
    empirical capacities from the traced payoffs after it.
    """
    n, m = game.n_users, game.n_channels
    p_sum = [[0.0] * n for _ in range(slots)]
    p_max = [[0.0] * n for _ in range(slots)]
    payoff: list[list[float | None]] = [[None] * n for _ in range(slots)]
    count = 0
    with open(out / "trace.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        _require(next(reader) == ["slot", "user", "channel", "p", "q", "payoff"], "trace header")
        for slot_s, user_s, _channel, p_s, _q, pay_s in reader:
            count += 1
            s, u, p = int(slot_s) - 1, int(user_s) - 1, float(p_s)
            p_sum[s][u] += p
            p_max[s][u] = max(p_max[s][u], p)
            if pay_s:
                _require(payoff[s][u] is None, f"slot {s + 1} user {u + 1}: two payoffs")
                payoff[s][u] = float(pay_s)
    _require(count == slots * n * m, f"trace has {count} rows, expected {slots * n * m}")
    for s in range(slots):
        for u in range(n):
            _require(payoff[s][u] is not None, f"slot {s + 1} user {u + 1}: no payoff")
            _require(
                abs(p_sum[s][u] - 1.0) <= TOL,
                f"slot {s + 1} user {u + 1}: p sums to {p_sum[s][u]!r}",
            )

    conv = next(
        (s + 1 for s in range(slots) if min(p_max[s]) >= 1.0 - epsilon), None
    )
    said = _CONVERGED.search(stdout)
    _require(said is not None, f"no convergence line in {stdout!r}")
    reported = None if said.group(1) == "never" else int(said.group(2))
    _require(reported == conv, f"reported convergence {reported}, trace says {conv}")
    burn_in = slots // 2 if conv is None else min(conv, slots - 1)

    users = _rows(out / "users.csv")
    _require(len(users) == n, f"users.csv has {len(users)} rows for {n} users")
    for u, row in enumerate(users):
        tail = [payoff[s][u] for s in range(burn_in, slots)]
        ref = oracle.empirical_capacity(tail, game.thetas[u])
        _close(float(row["ec_empirical"]), ref, f"user {u + 1} ec_empirical")

    svgs = sorted(out.glob("*.svg"))
    _require(len(svgs) >= 1, f"no SVG charts in {out}")
    for svg in svgs:
        try:
            ET.parse(svg)
        except ET.ParseError as err:
            raise CheckError(f"{svg.name} is not well-formed XML: {err}") from err


# --- analysis ----------------------------------------------------------------


def check_analyze(out: Path, game: oracle.Game) -> None:
    """Check analysis.json of one `analyze` against the occupancy-count reference."""
    a = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    expected = oracle.nash_count(game)
    _require(a["nash_count"] == expected, f"nash_count {a['nash_count']}, reference {expected}")
    profiles = [tuple(p) for p in a["nash_profiles"]]
    _require(
        len(set(profiles)) == len(profiles) == expected,
        f"{len(profiles)} listed profiles ({len(set(profiles))} distinct), expected {expected}",
    )
    for prof in profiles:
        _require(oracle.is_equilibrium(game, prof), f"listed profile {prof} is not an equilibrium")
    best = oracle.best_nash_aggregate(game)
    if best is None:
        _require(a["best_nash_aggregate_ec"] is None, "best aggregate without equilibria")
    else:
        _close(a["best_nash_aggregate_ec"], best, "best_nash_aggregate_ec")
    err = a["potential_check"]["epg_max_abs_error"]
    _require(err <= TOL, f"epg_max_abs_error {err!r} > {TOL}")


def check_ode(out: Path, game: oracle.Game, steps: int) -> None:
    """Check ode.csv: the potential never falls, and its ends match the reference."""
    rows = _rows(out / "ode.csv")
    _require(len(rows) == steps + 1, f"ode.csv has {len(rows)} rows, expected {steps + 1}")
    n, m = game.n_users, game.n_channels
    phis = [float(r["phi"]) for r in rows]
    for step in range(1, len(phis)):
        _require(
            phis[step] >= phis[step - 1] - PHI_DROP_TOL,
            f"phi drops from {phis[step - 1]!r} to {phis[step]!r} at step {step}",
        )
    for row in (rows[0], rows[-1]):
        p = [[float(row[f"p_{u + 1}_{c + 1}"]) for c in range(m)] for u in range(n)]
        step = row["step"]
        _close(float(row["phi"]), oracle.mixed_potential(game, p), f"step {step} phi")
        _close(float(row["max_rhs"]), oracle.replicator_max_rhs(game, p), f"step {step} max_rhs")
