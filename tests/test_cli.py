import csv
import json

import pytest

from specgame.cli import main
from specgame.config import config_from_dict, config_to_dict, parse_config


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
        assert "pure NE" in capsys.readouterr().out

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

    def test_sweep_without_section_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "no sweep section" in capsys.readouterr().err

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

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--preset", "fig9"])
        assert exc.value.code == 2
