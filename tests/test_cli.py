import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgame.capacity import empirical_effective_capacity
from specgame.cli import (
    CSV_ROWS,
    FAIR_SHARE_NOTE,
    JSON_ITEMS,
    _reprs,
    _running_aggregate,
    _write_csv,
    _write_json,
    _write_trace,
    build_parser,
    cmd_experiment,
    cmd_learn,
    main,
)
from specgame.config import PRESETS, config_from_dict, config_to_dict, parse_config, preset_config
from specgame import simulator
from specgame.plots import Series, line_chart
from specgame.simulator import TrialTraces


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "game": {
            "theta": 0.01,
            "n_users": 2,
            "channels": [
                {"id": 1, "rates": [0.0, 2.0], "probs": [0.5, 0.5]},
                {"id": 2, "rates": [0.0, 6.0], "probs": [0.5, 0.5]},
            ],
        },
        "iterations": 200,
        "trials": 4,
        "base_seed": 42,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_rows(path, header, rows) -> None:
    """The reference CSV writer: csv.writer, one row of _fmt cells at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


class TestAnalyze:
    def test_writes_analysis(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert analysis["nash_count"] >= 1
        assert analysis["n_users"] == 2
        assert analysis["potential_check"]["epg_max_abs_error"] <= 1e-9
        assert analysis["potential_check"]["opg_sign_disagreements"] == 0
        assert analysis["potential_maximizer"] in analysis["nash_profiles"]
        assert "potential_note" not in analysis
        printed = capsys.readouterr().out
        assert "pure NE" in printed
        assert "potential maximizer" in printed and "fair-share" not in printed

    def test_slot_winner_maximizer_is_marked_fair_share(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["game"]["contention"] = "slot_winner"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert analysis["potential_maximizer"] is not None
        assert "fair sharing" in analysis["potential_note"]
        assert "(fair-share potential)" in capsys.readouterr().out

    def test_heterogeneous_game_analyzed_without_potential(self, tmp_path):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["game"] = {
            "thetas": [0.01, 0.5],
            "channels": data["game"]["channels"],
        }
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert analysis["potential_maximizer"] is None
        assert analysis["potential_check"]["opg_sign_disagreements"] is None


class TestLearn:
    def test_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "trace.csv")
        # one row per slot, user, and channel
        assert len(rows) == 200 * 2 * 2
        assert list(rows[0]) == ["slot", "user", "channel", "p", "q", "payoff"]
        by_slot_user = {}
        for r in rows[:40]:
            key = (r["slot"], r["user"])
            if r["payoff"] != "":
                by_slot_user.setdefault(key, []).append(r["channel"])
        # exactly one channel per (slot, user) carries the realized payoff
        assert all(len(v) == 1 for v in by_slot_user.values())
        users = read_rows(out / "users.csv")
        assert len(users) == 2
        assert float(users[0]["p_max"]) <= 1.0
        assert "aggregate EC" in capsys.readouterr().out

    def test_plot_outputs_are_reproducible(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert (
                main(["learn", "--config", str(cfg), "--plot", "--out", str(out)])
                == 0
            )
        for name in ("probability.svg", "estimates.svg", "aggregate.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @staticmethod
    def strict_config(tmp_path):
        """Two fair-share users at theta 800, where exp(-theta r) underflows."""
        return write_config(
            tmp_path,
            game={
                "theta": 800.0,
                "n_users": 2,
                "contention": "fair_share",
                "channels": [
                    {"id": 1, "rates": [1.0, 2.0], "probs": [0.5, 0.5]},
                    {"id": 2, "rates": [1.0, 3.0], "probs": [0.5, 0.5]},
                ],
            },
        )

    @pytest.mark.parametrize("source", ["strict", "fig2"])
    def test_running_aggregate_is_the_sum_of_prefix_capacities(self, tmp_path, source):
        if source == "fig2":
            sim = preset_config("fig2").sim
        else:
            sim = parse_config(self.strict_config(tmp_path)).sim
        payoffs = simulator.run_trial(sim, 0).traces.payoffs
        got = _running_aggregate(payoffs, sim.game.thetas)
        want = [
            sum(
                empirical_effective_capacity(payoffs[:t, u], theta)
                for u, theta in enumerate(sim.game.thetas)
            )
            for t in range(1, len(payoffs) + 1)
        ]
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-9

    def test_strict_aggregate_chart_keeps_every_slot(self, tmp_path):
        out = tmp_path / "out"
        argv = ["learn", "--config", str(self.strict_config(tmp_path)), "--plot", "--out", str(out)]
        assert main(argv) == 0
        svg = (out / "aggregate.svg").read_text(encoding="utf-8")
        points = svg.split('<polyline points="')[1].split('"')[0].split()
        assert len(points) == 200


def trace_rows(traces):
    """trace.csv rows as the csv.writer path writes them: one tuple per row."""
    p, q = traces.p.tolist(), traces.q.tolist()
    m = traces.p.shape[2]
    for slot, (actions, payoffs) in enumerate(
        zip(traces.actions.tolist(), traces.payoffs.tolist())
    ):
        for user, action in enumerate(actions):
            for channel in range(1, m + 1):
                yield (
                    slot + 1,
                    user + 1,
                    channel,
                    p[slot][user][channel - 1],
                    q[slot][user][channel - 1],
                    payoffs[user] if channel == action else None,
                )


EDGE_FLOATS = [-0.0, 0.0, 1e-05, 1e16, 0.1 + 0.2, 3.0, -2.0, 1 / 3, 5e-324, math.inf, -math.inf]

TRACE_SLOTS = CSV_ROWS // 12  # slots of a 3-user, 4-channel trace in one chunk


class TestTraceWriter:
    VALUES = np.array([-0.0, 0.0, 1e-05, 1e16, 0.1 + 0.2, 3.0, -2.0, 1 / 3, 5e-324])

    @pytest.mark.parametrize(
        "slots", [1, TRACE_SLOTS - 1, TRACE_SLOTS, TRACE_SLOTS + 1, 2 * TRACE_SLOTS + 45]
    )
    def test_bytes_match_the_csv_writer(self, tmp_path, slots):
        rng = np.random.default_rng(slots)
        n, m = 3, 4
        traces = TrialTraces(
            p=rng.choice(self.VALUES, size=(slots, n, m)),
            q=rng.choice(self.VALUES, size=(slots, n, m)),
            actions=rng.integers(1, m + 1, size=(slots, n)),
            payoffs=rng.choice(self.VALUES, size=(slots, n)),
        )
        _write_trace(tmp_path / "fast.csv", traces)
        write_rows(
            tmp_path / "rows.csv",
            ("slot", "user", "channel", "p", "q", "payoff"),
            trace_rows(traces),
        )
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestCsvWriter:
    """_write_csv against the csv.writer reference, on tables shaped like each CSV."""

    ROW_COUNTS = [1, CSV_ROWS - 1, CSV_ROWS, CSV_ROWS + 1]

    @staticmethod
    def same_bytes(tmp_path, header, columns, rows):
        _write_csv(tmp_path / "fast.csv", header, columns)
        write_rows(tmp_path / "rows.csv", header, rows)
        return (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_int_none_float_and_profile_columns(self, tmp_path, n):
        rng = np.random.default_rng(n)
        trial = np.arange(n)
        conv = [None if c < 0 else int(c) for c in rng.integers(-2, 3000, size=n)]
        closed = rng.choice(EDGE_FLOATS, size=n)
        empirical = rng.random(n) * 10
        profile = ["|".join(map(str, p)) for p in rng.integers(1, 6, size=(n, 5)).tolist()]
        wide = rng.integers(-(2**62), 2**62, size=n)
        header = ("trial", "conv_slot", "agg_ec_closed", "agg_ec_empirical", "profile", "wide")
        columns = (trial, conv, closed, empirical, profile, wide)
        rows = zip(trial.tolist(), conv, closed.tolist(), empirical.tolist(), profile, wide)
        assert self.same_bytes(tmp_path, header, columns, rows)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_nan_phi_is_an_empty_cell(self, tmp_path, n):
        rng = np.random.default_rng(n)
        phi = rng.choice(EDGE_FLOATS + [math.nan], size=n)
        max_rhs = rng.random(n)
        strategies = rng.dirichlet(np.ones(3), size=(n, 2)).reshape(n, -1)
        header = ("step", "phi", "max_rhs", "p_1_1", "p_1_2", "p_1_3", "p_2_1", "p_2_2", "p_2_3")
        columns = (np.arange(n), phi, max_rhs, *strategies.T)
        rows = (
            (step, None if math.isnan(v) else v, r, *s)
            for step, (v, r, s) in enumerate(zip(phi.tolist(), max_rhs.tolist(), strategies))
        )
        assert self.same_bytes(tmp_path, header, columns, rows)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_columns_of_one_shape_give_rows_in_c_order(self, tmp_path, n):
        rng = np.random.default_rng(n)
        users = 3
        trial = np.arange(n)
        channel = rng.integers(1, 6, size=(n, users))
        ec = rng.choice(EDGE_FLOATS, size=(n, users))
        shape = (n, users)
        columns = (
            np.broadcast_to(trial[:, None], shape),
            np.broadcast_to(np.arange(1, users + 1), shape),
            channel,
            ec,
        )
        rows = (
            (t, u + 1, channel[t, u], ec[t, u]) for t in range(n) for u in range(users)
        )
        assert self.same_bytes(tmp_path, ("trial", "user", "channel", "ec"), columns, rows)

    def test_sweep_table_with_missing_mean(self, tmp_path):
        values = [0.05, 0.1, 1e16]
        means = [12.5, None, 5e-324]
        columns = (
            ["eta"] * 3,
            np.array(values),
            np.array([2, 2, 2]),
            np.array(means, dtype=float),
        )
        rows = zip(["eta"] * 3, values, [2, 2, 2], means)
        header = ("variable", "value", "trials", "mean_conv_slot")
        assert self.same_bytes(tmp_path, header, columns, rows)

    def test_header_only_when_there_are_no_rows(self, tmp_path):
        assert self.same_bytes(tmp_path, ("a", "b"), (np.zeros(0), []), [])

    @pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
    def test_a_cell_that_needs_quoting_is_refused(self, tmp_path, cell):
        with pytest.raises(ValueError, match="quoting"):
            _write_csv(tmp_path / "x.csv", ("a", "b"), (np.arange(2), ["ok", cell]))


# NaNs of three payloads, both zeros, and values of short and long reprs
NAN_PAYLOADS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF0000000000123], np.uint64)
REPEAT_POOL = np.concatenate(
    [NAN_PAYLOADS.view(np.float64), [-0.0, 0.0, 1 / 3, 1e16, 5e-324, -2.0, math.inf]]
)


def runs(rng, shape, repeat):
    """Pool values in `shape`, each entry equal to the one above it along axis
    0 with probability `repeat`, so repeats come in runs of any length."""
    values = rng.choice(REPEAT_POOL, size=shape)
    keep = rng.random(shape) < repeat
    for i in range(1, shape[0]):
        values[i] = np.where(keep[i], values[i - 1], values[i])
    return values


def expected_cells(values):
    return ["" if math.isnan(v) else repr(v) for v in values.ravel().tolist()]


class TestRepeatedFloats:
    """Floats equal bit for bit to the entry one row up reuse its string."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(1,), (2,), (9,), (7, 1), (6, 3), (5, 2, 4)]),
        repeat=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    )
    def test_reprs_match_repr_per_entry(self, seed, shape, repeat):
        values = runs(np.random.default_rng(seed), shape, repeat)
        assert _reprs(values) == expected_cells(values)

    def test_signed_zeros_and_nan_payloads_are_told_apart(self):
        values = np.concatenate([[0.0, -0.0, -0.0, 0.0], NAN_PAYLOADS.view(np.float64), [0.0]])
        assert _reprs(values) == ["0.0", "-0.0", "-0.0", "0.0", "", "", "", "0.0"]
        assert _reprs(values[:, None]) == _reprs(values)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.sampled_from([(), (3,), (2, 4)]),
        rows=st.sampled_from([-1, 0, 1, 2, CSV_ROWS + 5]),
        repeat=st.sampled_from([0.5, 0.95, 1.0]),
    )
    def test_csv_bytes_match_the_csv_writer(self, tmp_path_factory, seed, width, rows, repeat):
        # `rows` counts from one chunk's worth of leading entries, so runs
        # cross the chunk boundary; `fresh` is a column with no repeats
        per_row = math.prod(width)
        n = max(1, CSV_ROWS // per_row + rows)
        rng = np.random.default_rng(seed)
        shape = (n, *width)
        repeated = runs(rng, shape, repeat)
        fresh = rng.random(shape)
        index = np.broadcast_to(np.arange(n).reshape((n,) + (1,) * len(width)), shape)
        rows_out = (
            (i, None if math.isnan(r) else r, f)
            for i, r, f in zip(
                index.ravel().tolist(), repeated.ravel().tolist(), fresh.ravel().tolist()
            )
        )
        tmp = tmp_path_factory.mktemp("csv")
        header = ("row", "repeated", "fresh")
        assert TestCsvWriter.same_bytes(tmp, header, (index, repeated, fresh), rows_out)


_NUMBERS = (
    st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 1e16, 5e-324, 0.1 + 0.2, math.nan, math.inf, -math.inf])
    | st.booleans()
    | st.none()
)
_TEXT = st.text(max_size=8) | st.sampled_from(
    ["a, b", "1, 2", '"quoted"', "line\nbreak", "caf\u00e9, \u4e2d", "], [", FAIR_SHARE_NOTE]
)
_VALUES = st.recursive(
    _NUMBERS | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)
_LISTS = st.one_of(
    [
        st.lists(cells, max_size=6)
        for cells in (
            _NUMBERS,
            _NUMBERS | _TEXT,
            st.lists(_NUMBERS, max_size=4),
            st.lists(_NUMBERS, max_size=4).map(tuple),
            st.lists(_NUMBERS | _TEXT, max_size=4),
        )
    ]
)


def json_bytes(tmp_path, doc) -> tuple[bytes, bytes]:
    _write_json(tmp_path / "doc.json", doc)
    return (tmp_path / "doc.json").read_bytes(), (json.dumps(doc, indent=2) + "\n").encode()


class TestJsonWriter:
    """_write_json gives the bytes of json.dumps(doc, indent=2) and a newline."""

    @settings(max_examples=300, deadline=None)
    @given(doc=st.dictionaries(_TEXT, _VALUES | _LISTS, max_size=6))
    def test_random_documents(self, tmp_path_factory, doc):
        fast, reference = json_bytes(tmp_path_factory.getbasetemp(), doc)
        assert fast == reference

    @pytest.mark.parametrize("rows", [1, JSON_ITEMS - 1, JSON_ITEMS, JSON_ITEMS + 1])
    def test_profile_lists_around_the_chunk(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        profiles = list(zip(*(rng.integers(1, 6, size=(8, rows)).tolist())))
        doc = {
            "n_users": 8,
            "thetas": (0.01,) * 8,
            "nash_profiles": profiles,
            "nash_aggregate_ec": rng.random(rows).tolist(),
            "lists": [list(p) for p in profiles],
            "notes": ["a, b", FAIR_SHARE_NOTE],
            "rows": [[1, "2, 3"], [4, 5]],
            "potential_note": FAIR_SHARE_NOTE,
            "potential_check": {"deviations_checked": 2**70 * 70, "exhaustive": True},
        }
        fast, reference = json_bytes(tmp_path, doc)
        assert fast == reference

    @pytest.mark.parametrize("rows", [JSON_ITEMS + 1, 2 * JSON_ITEMS + 3])
    def test_a_chunk_of_other_items_between_profile_chunks(self, tmp_path, rows):
        profiles = [(1, 2, 3)] * rows
        profiles[JSON_ITEMS] = "1, 2, 3"
        profiles[-1] = ()
        fast, reference = json_bytes(tmp_path, {"nash_profiles": profiles})
        assert fast == reference

    @settings(max_examples=200, deadline=None)
    @given(
        floats=st.lists(
            st.sampled_from([0.0, -0.0, 1 / 3, 1e16, 5e-324, 2.5])
            | st.floats(allow_nan=False, allow_infinity=False),
            max_size=12,
        ).map(lambda xs: [x for x in xs for _ in range(1 + int(abs(x)) % 3)]),
        other=st.sampled_from([[], [math.nan], [math.inf], [1], [True], ["1.0"]]),
    )
    def test_float_lists_with_runs(self, tmp_path_factory, floats, other):
        doc = {"floats": floats, "mixed": floats + other}
        fast, reference = json_bytes(tmp_path_factory.getbasetemp(), doc)
        assert fast == reference

    @pytest.mark.parametrize("rows", [JSON_ITEMS, JSON_ITEMS + 1, 2 * JSON_ITEMS + 3])
    def test_float_runs_across_the_chunk(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        floats = np.repeat(rng.random(rows // 7 + 1), 7)[:rows].tolist()
        floats[JSON_ITEMS - 1] = -0.0
        fast, reference = json_bytes(tmp_path, {"nash_aggregate_ec": floats})
        assert fast == reference

    def test_empty_document_and_values(self, tmp_path):
        for doc in ({}, {"a": [], "b": (), "c": {}, "d": ""}):
            fast, reference = json_bytes(tmp_path, doc)
            assert fast == reference


class TestExperiment:
    def test_csv_schemas(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        trials = read_rows(out / "trials.csv")
        assert list(trials[0]) == [
            "trial",
            "conv_slot",
            "agg_ec_closed",
            "agg_ec_empirical",
            "profile",
        ]
        assert len(trials) == 4
        assert trials[2]["trial"] == "2"
        assert all(len(r["profile"].split("|")) == 2 for r in trials)
        users = read_rows(out / "users.csv")
        assert list(users[0]) == [
            "trial",
            "user",
            "channel",
            "ec_closed_form",
            "ec_empirical",
        ]
        assert len(users) == 4 * 2

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("trials.csv", "users.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_fewer_trials_keep_the_leading_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        full, fewer = tmp_path / "full", tmp_path / "fewer"
        argv = ["experiment", "--config", str(cfg)]
        assert main([*argv, "--trials", "8", "--out", str(full)]) == 0
        assert main([*argv, "--trials", "3", "--out", str(fewer)]) == 0
        for name, rows in (("trials.csv", 3), ("users.csv", 3 * 2)):
            long = (full / name).read_text(encoding="utf-8").splitlines()
            short = (fewer / name).read_text(encoding="utf-8").splitlines()
            assert len(short) == 1 + rows
            assert short == long[: len(short)]

    def test_trace_flag_matches_learn_trace(self, tmp_path):
        cfg = write_config(tmp_path)
        e_out, l_out = tmp_path / "e", tmp_path / "l"
        assert (
            main(["experiment", "--config", str(cfg), "--trace", "--out", str(e_out)])
            == 0
        )
        assert main(["learn", "--config", str(cfg), "--out", str(l_out)]) == 0
        assert (e_out / "trace.csv").read_bytes() == (l_out / "trace.csv").read_bytes()

    def test_overrides_land_in_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert (
            main(
                [
                    "experiment",
                    "--config",
                    str(cfg),
                    "--trials",
                    "2",
                    "--seed",
                    "9",
                    "--iterations",
                    "50",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        resolved = parse_config(out / "resolved_config.json")
        assert resolved.sim.trials == 2
        assert resolved.sim.base_seed == 9
        assert resolved.sim.iterations == 50
        # emitted metadata re-parses to the identical config
        raw = json.loads((out / "resolved_config.json").read_text())
        assert config_to_dict(config_from_dict(raw)) == raw

    def test_preset_runs(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "experiment",
                "--preset",
                "fig2",
                "--trials",
                "2",
                "--iterations",
                "80",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(read_rows(out / "trials.csv")) == 2

    def test_plot(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert (
            main(["experiment", "--config", str(cfg), "--plot", "--out", str(out)])
            == 0
        )
        svg = (out / "aggregate_ec.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            trials=2,
            iterations=60,
            sweep={"variable": "eta", "values": [0.05, 0.2]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 2
        assert rows[0]["variable"] == "eta"
        assert [r["value"] for r in rows] == ["0.05", "0.2"]
        assert float(rows[0]["mean_agg_closed"]) > 0

    def test_random_baseline_reports_no_convergence(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            trials=2,
            iterations=60,
            algorithm="random",
            sweep={"variable": "eta", "values": [0.05]},
        )
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out / "e")]) == 0
        assert "convergence rate n/a," in capsys.readouterr().out
        assert [r["conv_slot"] for r in read_rows(out / "e" / "trials.csv")] == ["0", "0"]
        assert main(["sweep", "--config", str(cfg), "--out", str(out / "s")]) == 0
        row = read_rows(out / "s" / "sweep.csv")[0]
        assert row["convergence_rate"] == row["mean_conv_slot"] == ""

    def test_sweep_without_section_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "no sweep section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variable, values, game",
        [
            ("users", [2, 0], None),
            ("users", [2, 2.5], None),
            ("eta", [0.1, -1], None),
            ("theta", [0.1, 0], None),
            (
                "users",
                [2, 3],
                {"thetas": [0.1, 0.2], "channels": [{"rates": [0.0, 2.0], "probs": [0.5, 0.5]}]},
            ),
        ],
    )
    def test_bad_point_refused_before_any_run(
        self, variable, values, game, tmp_path, capsys, monkeypatch
    ):
        ran = []
        monkeypatch.setattr(simulator, "run_experiment", ran.append)
        extra = {"game": game} if game else {}
        cfg = write_config(tmp_path, sweep={"variable": variable, "values": values}, **extra)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: sweep {variable} = " in capsys.readouterr().err
        assert ran == []
        assert not (out / "sweep.csv").exists()

    def test_sweep_plot(self, tmp_path):
        cfg = write_config(
            tmp_path,
            trials=2,
            iterations=60,
            sweep={"variable": "theta", "values": [0.01, 0.1]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--plot", "--out", str(out)]) == 0
        assert (out / "sweep.svg").exists()


class TestOde:
    def test_ode_csv_and_monotone_potential(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert (
            main(
                [
                    "ode",
                    "--config",
                    str(cfg),
                    "--iterations",
                    "400",
                    "--plot",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = read_rows(out / "ode.csv")
        assert len(rows) == 401
        assert list(rows[0])[:3] == ["step", "phi", "max_rhs"]
        phis = [float(r["phi"]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(phis, phis[1:]))
        assert (out / "potential.svg").exists()

    def test_strategy_columns_stay_on_simplex(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert (
            main(["ode", "--config", str(cfg), "--iterations", "50", "--out", str(out)])
            == 0
        )
        rows = read_rows(out / "ode.csv")
        for r in rows[:: len(rows) // 5]:
            for user in (1, 2):
                total = sum(float(r[f"p_{user}_{m}"]) for m in (1, 2))
                assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_runs_analyze_and_ode(preset, tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--preset", preset, "--out", str(out)]) == 0
    text = (out / "analysis.json").read_text(encoding="utf-8")
    analysis = json.loads(text)
    assert text == json.dumps(analysis, indent=2) + "\n"
    assert analysis["nash_count"] == len(analysis["nash_profiles"]) >= 1
    argv = ["ode", "--preset", preset, "--iterations", "5", "--out", str(out)]
    assert main(argv) == 0
    rows = read_rows(out / "ode.csv")
    assert len(rows) == 6
    mixed = preset_config(preset).sim.game.homogeneous_theta() is None
    assert [r["phi"] == "" for r in rows] == [mixed] * 6


@pytest.mark.parametrize(
    "preset, best",
    [
        ("fig2", [1, 2, 3, 3, 4, 4, 5, 5]),
        ("eta_sweep", [1, 2, 3, 3, 4, 4, 5, 5]),
        ("users_strict", [1, 2, 3, 4, 5]),
        ("users_loose", [1, 2, 3, 4, 5]),
        ("sla_mix", [3, 3, 1, 2, 2, 5, 4, 4, 5]),
    ],
)
def test_best_nash_profile_is_the_first_of_the_rounding_ties(preset, best, tmp_path):
    # equilibria of equal welfare differ by 1-2 ulp in their summed aggregate
    assert main(["analyze", "--preset", preset, "--out", str(tmp_path)]) == 0
    analysis = json.loads((tmp_path / "analysis.json").read_text(encoding="utf-8"))
    top = analysis["best_nash_aggregate_ec"]
    assert top == max(analysis["nash_aggregate_ec"])
    ties = [
        p
        for p, agg in zip(analysis["nash_profiles"], analysis["nash_aggregate_ec"])
        if agg >= top - 1e-12 * top
    ]
    assert analysis["best_nash_profile"] == min(ties) == best


class TestErrors:
    def test_requires_a_source(self, capsys):
        assert main(["experiment"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_rejects_both_sources(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["experiment", "--config", str(cfg), "--preset", "fig2"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["analyze", "--config", str(missing)]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert main(["analyze", "--config", str(bad)]) == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "learn", "sweep", "ode"])
    def test_trace_is_only_an_experiment_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "fig2", "--trace"])
        assert exc.value.code == 2
        assert "--trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "0", "trials must be >= 1, got 0"),
            ("--iterations", "0", "iterations must be >= 1, got 0"),
            ("--seed", "-1", "base_seed must fit in an unsigned 64-bit integer"),
        ],
    )
    def test_bad_override_is_config_error(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["experiment", "--preset", "fig2", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["eta", "sla_rate_cap"])
    def test_infinite_json_value_is_config_error(self, key, tmp_path, capsys):
        cfg = write_config(tmp_path, **{key: float("inf")})  # written as Infinity
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {key} must be > 0 and finite, got inf\n"
        assert not out.exists()

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--preset", "fig9"])
        assert exc.value.code == 2


def test_the_parser_is_built_once_and_parses_every_command_afresh(tmp_path):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit):
        main(["experiment", "--preset", "fig9"])
    cfg = write_config(tmp_path)
    first = build_parser().parse_args(["experiment", "--config", str(cfg), "--trace"])
    second = build_parser().parse_args(["learn", "--config", str(cfg)])
    assert (first.command, first.trace, first.func) == ("experiment", True, cmd_experiment)
    assert (second.command, second.func) == ("learn", cmd_learn)
    assert not hasattr(second, "trace")


class TestChartsMatchTheirCsvs:
    """Each --plot chart equals the one drawn from the CSVs the same run wrote.

    The commands chart their in-memory results. Here the CSVs are parsed
    back, each series is rebuilt by hand and drawn with line_chart; the CSVs
    hold repr floats, which parse back to the same floats.
    """

    def test_learn(self, tmp_path):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["game"] = {"thetas": [0.01, 0.5], "channels": data["game"]["channels"]}
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["learn", "--config", str(cfg), "--plot", "--out", str(out)]) == 0
        rows = read_rows(out / "trace.csv")
        slots = max(int(r["slot"]) for r in rows)
        xs = [float(s) for s in range(1, slots + 1)]
        for name, field, title, y_label in (
            ("probability.svg", "p", "Channel selection probabilities, user 1", "probability"),
            ("estimates.svg", "q", "Payoff estimates, user 1", "estimate"),
        ):
            series = [
                Series(
                    f"channel {ch}",
                    xs,
                    [float(r[field]) for r in rows if r["user"] == "1" and r["channel"] == ch],
                )
                for ch in ("1", "2")
            ]
            expected = line_chart(series, title, "slot", y_label)
            assert (out / name).read_text(encoding="utf-8") == expected

        thetas = np.array([0.01, 0.5])
        payoff = np.zeros((slots, 2))
        for r in rows:
            if r["payoff"]:
                payoff[int(r["slot"]) - 1, int(r["user"]) - 1] = float(r["payoff"])
        mean_exp = np.cumsum(np.exp(-thetas * payoff), axis=0) / np.arange(1, slots + 1)[:, None]
        agg = (-np.log(mean_exp) / thetas).sum(axis=1)
        expected = line_chart(
            [Series("aggregate", xs, agg.tolist())],
            "Aggregate effective capacity",
            "slot",
            "packets per slot",
        )
        assert (out / "aggregate.svg").read_text(encoding="utf-8") == expected

    def test_experiment(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--plot", "--out", str(out)]) == 0
        rows = read_rows(out / "trials.csv")
        trials = [int(r["trial"]) for r in rows]
        expected = line_chart(
            [
                Series("closed form", trials, [float(r["agg_ec_closed"]) for r in rows]),
                Series("empirical", trials, [float(r["agg_ec_empirical"]) for r in rows]),
            ],
            "Aggregate effective capacity by trial",
            "trial",
            "packets per slot",
        )
        assert (out / "aggregate_ec.svg").read_text(encoding="utf-8") == expected

    def test_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path,
            trials=3,
            iterations=60,
            sweep={"variable": "users", "values": [2, 3, 5]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--plot", "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        values = [float(r["value"]) for r in rows]
        means = [float(r["mean_agg_closed"]) for r in rows]
        stds = [float(r["std_agg_closed"]) for r in rows]
        expected = line_chart(
            [
                Series("mean", values, means),
                Series("mean + std", values, [m + s for m, s in zip(means, stds)]),
                Series("mean - std", values, [m - s for m, s in zip(means, stds)]),
            ],
            "Aggregate effective capacity vs users",
            "users",
            "packets per slot",
        )
        assert (out / "sweep.svg").read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("thetas", [[0.01, 0.01], [0.01, 0.5]])
    def test_ode(self, tmp_path, thetas):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["game"] = {"thetas": thetas, "channels": data["game"]["channels"]}
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = ["ode", "--config", str(cfg), "--iterations", "120", "--plot", "--out", str(out)]
        assert main(argv) == 0
        rows = read_rows(out / "ode.csv")
        steps = [int(r["step"]) for r in rows]
        if all(r["phi"] for r in rows):
            series = Series("potential", steps, [float(r["phi"]) for r in rows])
        else:
            # no common exponent: no potential, the chart shows the motion
            assert not any(r["phi"] for r in rows)
            series = Series("max |dP/dt|", steps, [float(r["max_rhs"]) for r in rows])
        expected = line_chart([series], "Flow diagnostics", "step", "value")
        assert (out / "potential.svg").read_text(encoding="utf-8") == expected
