import json
import math
import re
from dataclasses import fields

import pytest

from specgame.config import (
    PRESETS,
    RATE_STEPS,
    SNR_THRESHOLDS,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    parse_config,
    preset_config,
    snr_channel,
)
from specgame.game import Contention
from specgame.simulator import SimConfig


def minimal() -> dict:
    return {
        "game": {
            "theta": 0.1,
            "n_users": 2,
            "channels": [
                {"id": 1, "rates": [0.0, 2.0], "probs": [0.5, 0.5]},
                {"id": 2, "rates": [0.0, 6.0], "probs": [0.5, 0.5]},
            ],
        }
    }


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = config_from_dict(minimal())
        sim = cfg.sim
        assert sim.iterations == 2000
        assert sim.trials == 1
        assert sim.base_seed == 0
        assert sim.algorithm == "learn"
        assert sim.eta == 0.1
        assert sim.lam is None
        assert sim.epsilon == 0.01
        assert sim.game.contention is Contention.FAIR_SHARE
        assert cfg.out_dir == "runs"
        assert not cfg.plot
        assert cfg.sweep_variable is None

    def test_theta_shorthand_replicates(self):
        cfg = config_from_dict(minimal())
        assert cfg.sim.game.thetas == (0.1, 0.1)

    def test_explicit_thetas(self):
        data = minimal()
        data["game"] = {
            "thetas": [0.1, 0.2],
            "channels": data["game"]["channels"],
        }
        assert config_from_dict(data).sim.game.thetas == (0.1, 0.2)

    def test_lambda_forms(self):
        data = minimal()
        data["lambda"] = "1/t"
        assert config_from_dict(data).sim.lam is None
        data["lambda"] = 0.3
        assert config_from_dict(data).sim.lam == 0.3
        data["lambda"] = "fast"
        with pytest.raises(ConfigError, match="lambda"):
            config_from_dict(data)


class TestRejection:
    def test_unknown_top_key(self):
        data = minimal()
        data["iterationz"] = 50
        with pytest.raises(ConfigError, match="'iterationz'"):
            config_from_dict(data)

    def test_collect_traces_is_an_unknown_key(self):
        # tracing is a property of the call: run_trial traces, run_experiment does not
        with pytest.raises(ConfigError, match="unknown config key 'collect_traces'"):
            config_from_dict({**minimal(), "collect_traces": True})

    def test_sla_on_an_all_zero_rate_network_needs_a_rate_cap(self):
        data = minimal()
        data["game"]["channels"] = [
            {"id": m, "rates": [0.0], "probs": [1.0]} for m in (1, 2)
        ]
        # a cap of 0 would divide every payoff by 0
        with pytest.raises(ConfigError, match="sla_rate_cap must be set"):
            config_from_dict({**data, "algorithm": "sla"})
        assert config_from_dict({**data, "algorithm": "sla", "sla_rate_cap": 1.0})
        assert config_from_dict({**data, "algorithm": "learn"})

    def test_unknown_game_key(self):
        data = minimal()
        data["game"]["snr"] = 5
        with pytest.raises(ConfigError, match="game.'snr'"):
            config_from_dict(data)

    def test_unknown_channel_key(self):
        data = minimal()
        data["game"]["channels"][1]["color"] = "blue"
        with pytest.raises(ConfigError, match=r"game.channels\[1\].'color'"):
            config_from_dict(data)

    def test_bad_probs_name_the_channel(self):
        data = minimal()
        data["game"]["channels"][0]["probs"] = [0.5, 0.4]
        with pytest.raises(ConfigError, match=r"channels\[0\].*sum to 0.9"):
            config_from_dict(data)

    def test_theta_and_thetas_conflict(self):
        data = minimal()
        data["game"]["thetas"] = [0.1, 0.1]
        with pytest.raises(ConfigError, match="exactly one of thetas"):
            config_from_dict(data)

    def test_n_users_must_match_thetas(self):
        data = minimal()
        del data["game"]["theta"]
        data["game"]["thetas"] = [0.1, 0.1, 0.1]
        with pytest.raises(ConfigError, match="n_users"):
            config_from_dict(data)

    def test_probs_and_snr_conflict(self):
        data = minimal()
        data["game"]["channels"][0]["avg_snr_db"] = 5.0
        with pytest.raises(ConfigError, match="exactly one of probs"):
            config_from_dict(data)

    def test_thresholds_need_snr(self):
        data = minimal()
        data["game"]["channels"][0]["thresholds_db"] = [1.0, 2.0]
        with pytest.raises(ConfigError, match="thresholds_db"):
            config_from_dict(data)

    def test_bad_thresholds_are_config_errors(self):
        data = minimal()
        channel = {"id": 2, "rates": [0.0, 1.0, 6.0], "avg_snr_db": 5.0}
        data["game"]["channels"][1] = channel
        channel["thresholds_db"] = [4.0, 1.0]
        with pytest.raises(ConfigError, match=r"channels\[1\]: thresholds must be .*ascending"):
            config_from_dict(data)
        channel["thresholds_db"] = ["low", 4.0]
        with pytest.raises(ConfigError, match=r"channels\[1\]"):
            config_from_dict(data)

    def test_wrong_type_reports_path(self):
        data = minimal()
        data["trials"] = "many"
        with pytest.raises(ConfigError, match="trials: expected int"):
            config_from_dict(data)
        data = minimal()
        data["trials"] = True
        with pytest.raises(ConfigError, match="trials: expected int"):
            config_from_dict(data)

    def test_simconfig_invariants_become_config_errors(self):
        data = minimal()
        data["iterations"] = 0
        with pytest.raises(ConfigError, match="iterations"):
            config_from_dict(data)

    def test_sla_gain_outside_unit_interval_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**minimal(), "sla_gain": 1.5}), encoding="utf-8")
        with pytest.raises(ConfigError, match="sla_gain"):
            parse_config(path)

    def test_nonpositive_sla_rate_cap_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**minimal(), "sla_rate_cap": 0}), encoding="utf-8")
        with pytest.raises(ConfigError, match="sla_rate_cap"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["eta", "sla_rate_cap"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_step_and_rate_cap_are_config_errors(self, key, value, tmp_path):
        # json.dumps writes Infinity and NaN, and json.load reads them back
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**minimal(), key: value}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{key} must be > 0 and finite"):
            parse_config(path)

    def test_sweep_needs_both_fields(self):
        data = minimal()
        data["sweep"] = {"variable": "eta"}
        with pytest.raises(ConfigError, match="values"):
            config_from_dict(data)

    def test_sweep_unknown_variable(self):
        data = minimal()
        data["sweep"] = {"variable": "snr", "values": [1]}
        with pytest.raises(ConfigError, match="sweep.variable"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "variable, values, message",
        [
            ("users", [5, 2.5], r"sweep users = 2.5: user counts must be whole numbers"),
            ("users", [5, 0], r"sweep users = 0.0: user counts must be whole numbers"),
            ("eta", [0.1, -1], r"sweep eta = -1.0: eta must be > 0"),
            ("theta", [0.1, 0], r"sweep theta = 0.0: QoS exponents must be finite and > 0"),
        ],
    )
    def test_bad_sweep_points_are_config_errors(self, variable, values, message):
        data = minimal()
        data["sweep"] = {"variable": variable, "values": values}
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)

    def test_user_sweep_over_mixed_exponents_is_config_error(self):
        data = minimal()
        data["game"] = {"thetas": [0.1, 0.2], "channels": data["game"]["channels"]}
        data["sweep"] = {"variable": "users", "values": [2, 3]}
        with pytest.raises(ConfigError, match="common QoS exponent"):
            config_from_dict(data)

    @pytest.mark.parametrize("value", ["fast", "3", True, None])
    def test_non_numeric_sweep_value_is_config_error(self, value):
        data = minimal()
        data["sweep"] = {"variable": "users", "values": [2, value]}
        with pytest.raises(ConfigError, match="sweep.values: expected a list of numbers"):
            config_from_dict(data)

    @staticmethod
    def _with_list(key, bad) -> dict:
        """minimal() with a second item `bad` in the number list at `key`."""
        data = minimal()
        channel = data["game"]["channels"][0]
        if key == "thetas":
            data["game"] = {"thetas": [0.5, bad], "channels": data["game"]["channels"]}
        elif key == "sweep.values":
            data["sweep"] = {"variable": "eta", "values": [0.1, bad]}
        elif key == "thresholds_db":
            del channel["probs"]
            channel.update(avg_snr_db=5.0, thresholds_db=[1.0, bad])
        else:
            channel[key] = [0.5, bad]
        return data

    @pytest.mark.parametrize("bad", [True, "0.5", None, [0.5]])
    @pytest.mark.parametrize(
        "key, path",
        [
            ("rates", "game.channels[0].rates"),
            ("probs", "game.channels[0].probs"),
            ("thresholds_db", "game.channels[0].thresholds_db"),
            ("thetas", "game.thetas"),
            ("sweep.values", "sweep.values"),
        ],
    )
    def test_number_lists_take_only_numbers(self, key, path, bad, tmp_path):
        # a bool is no number, though JSON true would pass float() as 1.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self._with_list(key, bad)), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: expected a list of numbers")):
            parse_config(cfg)

    @pytest.mark.parametrize(
        "key, path",
        [
            ("thresholds_db", "game.channels[0].thresholds_db"),
            ("rates", "game.channels[0].rates"),
            ("avg_snr_db", "game.channels[0].avg_snr_db"),
            ("eta", "eta"),
        ],
    )
    def test_numbers_that_overflow_a_float(self, key, path, tmp_path):
        data = minimal()
        channel = data["game"]["channels"][0]
        huge = 10**400  # 401 digits, which float() refuses
        if key == "thresholds_db":
            del channel["probs"]
            channel.update(avg_snr_db=5.0, thresholds_db=[1, 2, 3, 4000])
        elif key == "avg_snr_db":
            del channel["probs"]
            channel["avg_snr_db"] = huge
        elif key == "rates":
            channel["rates"] = [0, huge]
        else:
            data[key] = huge
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: ")):
            parse_config(cfg)

    def test_bad_contention(self):
        data = minimal()
        data["game"]["contention"] = "tdma"
        with pytest.raises(ConfigError, match="game:"):
            config_from_dict(data)


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        cfg = config_from_dict(minimal())
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_json_round_trip_is_identity(self):
        cfg = preset_config("fig2")
        text = json.dumps(config_to_dict(cfg))
        assert config_from_dict(json.loads(text)) == cfg

    def test_sweep_survives_round_trip(self):
        cfg = preset_config("eta_sweep")
        assert cfg.sweep_variable == "eta"
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_parse_config_reads_files(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal()), encoding="utf-8")
        assert parse_config(path) == config_from_dict(minimal())

    def test_parse_config_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_config(path)


# One non-default value per top-level JSON key.
NON_DEFAULT = {
    "iterations": 300,
    "trials": 3,
    "base_seed": 7,
    "algorithm": "sla",
    "eta": 0.2,
    "lambda": 0.5,
    "epsilon": 0.05,
    "sla_gain": 0.2,
    "sla_rate_cap": 4.0,
    "random_per_slot": True,
    "window": 100,
    "out_dir": "elsewhere",
    "plot": True,
    "preset": "custom",
    "sweep": {"variable": "eta", "values": [0.05, 0.2]},
}


class TestSchema:
    """The JSON keys are the config dataclasses' fields, so none can drop out
    of resolved_config.json."""

    def test_json_keys_are_the_field_names(self):
        sim = {f.name for f in fields(SimConfig)} - {"game", "lam"}
        experiment = {f.name for f in fields(ExperimentConfig)} - {"sim"}
        experiment -= {"sweep_variable", "sweep_values"}
        written = config_to_dict(preset_config("eta_sweep"))
        assert set(written) == {"game", "lambda", "sweep"} | sim | experiment
        assert set(NON_DEFAULT) == set(written) - {"game"}

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_every_key_round_trips_a_non_default_value(self, key):
        default = config_to_dict(config_from_dict(minimal()))
        assert default.get(key) != NON_DEFAULT[key]
        data = {**minimal(), key: NON_DEFAULT[key]}
        written = config_to_dict(config_from_dict(data))
        assert written[key] == NON_DEFAULT[key]
        assert {k: v for k, v in written.items() if k != key} == {
            k: v for k, v in default.items() if k != key
        }


class TestChannels:
    def test_reference_5db_probabilities(self):
        spec = snr_channel(1, 5.0)
        assert [round(p, 4) for p in spec.probs] == [
            0.3376,
            0.2348,
            0.2517,
            0.1757,
            0.0002,
        ]
        assert spec.rates == RATE_STEPS

    def test_probabilities_sum_to_one(self):
        for snr in (5.0, 6.0, 7.0, 8.0, 9.0):
            assert sum(snr_channel(1, snr).probs) == pytest.approx(1.0, abs=1e-12)

    def test_mean_rate_grows_with_snr(self):
        means = [c.law.mean() for c in preset_config("fig2").sim.game.channels]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_preset_channel_ids_ascend(self):
        assert [c.id for c in preset_config("fig2").sim.game.channels] == [1, 2, 3, 4, 5]

    def test_thresholds_ascend(self):
        assert all(b > a for a, b in zip(SNR_THRESHOLDS, SNR_THRESHOLDS[1:]))
        assert all(math.isfinite(t) and t > 0 for t in SNR_THRESHOLDS)


class TestPresets:
    def test_all_presets_validate(self):
        for name in PRESETS:
            cfg = preset_config(name)
            assert cfg.preset == name

    def test_fig2_shape(self):
        cfg = preset_config("fig2")
        g = cfg.sim.game
        assert g.n_users == 8
        assert g.n_channels == 5
        assert g.homogeneous_theta() == 0.01
        assert g.contention is Contention.SLOT_WINNER
        assert cfg.sim.iterations == 2000
        assert cfg.sim.trials == 200
        assert cfg.sim.eta == 0.1

    def test_user_sweep_presets(self):
        for name, theta in (("users_loose", 0.01), ("users_strict", 0.1)):
            cfg = preset_config(name)
            assert cfg.sweep_variable == "users"
            assert cfg.sweep_values == (5.0, 8.0, 15.0)
            assert cfg.sim.game.homogeneous_theta() == theta

    def test_sla_mix_exponents(self):
        cfg = preset_config("sla_mix")
        assert cfg.sim.algorithm == "sla"
        assert len(cfg.sim.game.thetas) == 9
        assert cfg.sim.game.homogeneous_theta() is None
        assert cfg.sim.sla_gain == 0.08

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("fig9")
