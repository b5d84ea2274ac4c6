"""Each output check passes on a real output and fails on a perturbed copy of it."""

import contextlib
import io
import json
import re
import shutil

import pytest

import checks
import workloads
from specgame.cli import main


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def edit_csv(path, row, column, value):
    """Replace one cell; `row` counts data rows from 0."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value(cells[header.index(column)])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def bump(delta):
    return lambda cell: repr(float(cell) + delta)


@pytest.fixture
def copy(tmp_path):
    def make(src):
        dst = tmp_path / "copy"
        shutil.copytree(src, dst)
        return dst

    return make


# --- experiment ----------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    base = tmp_path_factory.mktemp("experiment")
    (base / "configs").mkdir()
    wl = workloads.Experiment(7, base / "configs")
    for argv in wl.commands(base / "op"):
        run(argv)
    return wl, base / "op"


def check_learn(wl, out):
    cfg = wl.configs["learn"]
    return checks.check_experiment(out, wl.games["learn"], cfg.sim.iterations, "learn")


def test_experiment_outputs_pass(experiment):
    wl, op = experiment
    wl.check(op, [])
    wl.final_check(op, run_quietly)


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_closed_form_capacity_must_match_oracle(experiment, copy):
    wl, op = experiment
    out = copy(op / "learn")
    edit_csv(out / "users.csv", 3, "ec_closed_form", bump(-1e-7))
    with pytest.raises(checks.CheckError, match="ec_closed_form"):
        check_learn(wl, out)


def test_capacity_must_respect_jensen_bound(experiment, copy):
    wl, op = experiment
    out = copy(op / "learn")
    edit_csv(out / "users.csv", 0, "ec_closed_form", bump(5.0))
    with pytest.raises(checks.CheckError, match="outside"):
        check_learn(wl, out)


def test_aggregate_must_be_the_sum(experiment, copy):
    wl, op = experiment
    out = copy(op / "learn")
    edit_csv(out / "trials.csv", 1, "agg_ec_closed", bump(1e-6))
    with pytest.raises(checks.CheckError, match="agg_ec_closed"):
        check_learn(wl, out)


@pytest.mark.parametrize("conv", ["0", "2001"])
def test_convergence_slot_must_lie_in_the_run(experiment, copy, conv):
    wl, op = experiment
    out = copy(op / "learn")
    edit_csv(out / "trials.csv", 0, "conv_slot", lambda _: conv)
    with pytest.raises(checks.CheckError, match="conv_slot"):
        check_learn(wl, out)


def test_learning_must_beat_random(experiment):
    wl, op = experiment
    learned = check_learn(wl, op / "learn")
    cfg = wl.configs["random"]
    rand = checks.check_experiment(op / "random", wl.games["random"], cfg.sim.iterations, "random")
    with pytest.raises(checks.CheckError, match="learned mean"):
        checks.check_learning_beats_random(rand, learned)


def test_fewer_trials_must_repeat_the_first_rows(experiment, copy, tmp_path):
    wl, op = experiment
    fewer = tmp_path / "fewer"
    run(["experiment", "--config", str(wl.paths["learn"]), "--trials", "2", "--out", str(fewer)])
    checks.check_trial_prefix(op / "learn", fewer)
    edit_csv(fewer / "users.csv", 2, "ec_empirical", bump(1e-12))
    with pytest.raises(checks.CheckError, match="fewer trials"):
        checks.check_trial_prefix(op / "learn", fewer)


# --- learn-trace -------------------------------------------------------------


@pytest.fixture(scope="module")
def learn_trace(tmp_path_factory):
    base = tmp_path_factory.mktemp("learn")
    (base / "configs").mkdir()
    wl = workloads.LearnTrace(7, base / "configs")
    (argv,) = wl.commands(base / "op")
    stdout = run(argv)
    return wl, base / "op", stdout


def check_trace(wl, out, stdout):
    sim = wl.configs["learn"].sim
    checks.check_learn_trace(out, wl.games["learn"], sim.iterations, sim.epsilon, stdout)


def test_trace_outputs_pass(learn_trace):
    wl, op, stdout = learn_trace
    wl.check(op, [stdout])


def test_trace_row_count(learn_trace, copy):
    wl, op, stdout = learn_trace
    out = copy(op)
    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    (out / "trace.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckError, match="rows"):
        check_trace(wl, out, stdout)


def test_trace_probabilities_sum_to_one(learn_trace, copy):
    wl, op, stdout = learn_trace
    out = copy(op)
    edit_csv(out / "trace.csv", 1000, "p", bump(1e-6))
    with pytest.raises(checks.CheckError, match="sums to"):
        check_trace(wl, out, stdout)


def test_trace_one_payoff_per_user_and_slot(learn_trace, copy):
    wl, op, stdout = learn_trace
    out = copy(op)
    # rows 0..4 are user 1's channels in slot 1
    for row in range(5):
        edit_csv(out / "trace.csv", row, "payoff", lambda _: "1.0")
    with pytest.raises(checks.CheckError, match="two payoffs"):
        check_trace(wl, out, stdout)


def test_trace_payoff_present_for_every_user_and_slot(learn_trace, copy):
    wl, op, stdout = learn_trace
    out = copy(op)
    for row in range(5):
        edit_csv(out / "trace.csv", row, "payoff", lambda _: "")
    with pytest.raises(checks.CheckError, match="no payoff"):
        check_trace(wl, out, stdout)


def test_trace_empirical_capacity(learn_trace, copy):
    wl, op, stdout = learn_trace
    out = copy(op)
    edit_csv(out / "users.csv", 2, "ec_empirical", bump(1e-7))
    with pytest.raises(checks.CheckError, match="ec_empirical"):
        check_trace(wl, out, stdout)


def test_trace_convergence_report(learn_trace, copy):
    wl, op, stdout = learn_trace
    out = copy(op)
    with pytest.raises(checks.CheckError, match="reported convergence"):
        check_trace(wl, out, re.sub(r"converged (never|slot \d+)", "converged slot 1", stdout))


def test_trace_svgs_parse(learn_trace, copy):
    wl, op, stdout = learn_trace
    out = copy(op)
    svg = out / "probability.svg"
    svg.write_text(svg.read_text(encoding="utf-8")[:-20], encoding="utf-8")
    with pytest.raises(checks.CheckError, match="well-formed"):
        check_trace(wl, out, stdout)


# --- analysis ----------------------------------------------------------------


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    base = tmp_path_factory.mktemp("analysis")
    games = {}
    for label, data in {
        "analyze": {"game": workloads.network([0.01] * 4, workloads.SNRS_DB[:3])},
        "ode": {"game": workloads.network([0.01] * 3, workloads.SNRS_DB[:2]), "iterations": 60},
    }.items():
        path = base / f"{label}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        run([label, "--config", str(path), "--out", str(base / label)])
        games[label] = workloads.oracle_game(workloads.parse_config(path))
    return base, games


def test_analysis_outputs_pass(analysis):
    base, games = analysis
    checks.check_analyze(base / "analyze", games["analyze"])
    checks.check_ode(base / "ode", games["ode"], 60)


def edit_json(path, change):
    data = json.loads(path.read_text(encoding="utf-8"))
    change(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def test_nash_count_must_match(analysis, copy):
    base, games = analysis
    out = copy(base / "analyze")
    edit_json(out / "analysis.json", lambda a: a.update(nash_count=a["nash_count"] + 1))
    with pytest.raises(checks.CheckError, match="nash_count"):
        checks.check_analyze(out, games["analyze"])


def test_listed_profiles_must_be_equilibria(analysis, copy):
    base, games = analysis
    out = copy(base / "analyze")
    # everyone on the worst channel is never an equilibrium here
    edit_json(out / "analysis.json", lambda a: a["nash_profiles"].__setitem__(0, [1, 1, 1, 1]))
    with pytest.raises(checks.CheckError, match="not an equilibrium"):
        checks.check_analyze(out, games["analyze"])


def test_best_aggregate_must_match(analysis, copy):
    base, games = analysis
    out = copy(base / "analyze")
    edit_json(
        out / "analysis.json",
        lambda a: a.update(best_nash_aggregate_ec=a["best_nash_aggregate_ec"] + 1e-7),
    )
    with pytest.raises(checks.CheckError, match="best_nash_aggregate_ec"):
        checks.check_analyze(out, games["analyze"])


def test_exact_potential_error_must_be_small(analysis, copy):
    base, games = analysis
    out = copy(base / "analyze")
    edit_json(out / "analysis.json", lambda a: a["potential_check"].update(epg_max_abs_error=1e-6))
    with pytest.raises(checks.CheckError, match="epg_max_abs_error"):
        checks.check_analyze(out, games["analyze"])


def test_potential_must_not_fall(analysis, copy):
    base, games = analysis
    out = copy(base / "ode")
    before = float(checks._rows(out / "ode.csv")[29]["phi"])
    edit_csv(out / "ode.csv", 30, "phi", lambda _: repr(before - 2e-6))
    with pytest.raises(checks.CheckError, match="phi drops"):
        checks.check_ode(out, games["ode"], 60)


@pytest.mark.parametrize("row,column", [(0, "phi"), (60, "max_rhs")])
def test_ode_ends_must_match_oracle(analysis, copy, row, column):
    base, games = analysis
    out = copy(base / "ode")
    edit_csv(out / "ode.csv", row, column, bump(1e-7))
    with pytest.raises(checks.CheckError, match=f"step {row} {column}"):
        checks.check_ode(out, games["ode"], 60)
