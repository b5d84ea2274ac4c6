"""Experiment configuration: JSON schema, validation, and named presets.

A config file is a single UTF-8 JSON object. Unknown keys are rejected with
their full path so typos surface immediately instead of silently running
defaults. Channels are given either with explicit state probabilities or
with an average SNR in dB, in which case the probabilities come from the
fading model with this module's calibrated thresholds.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields

from specgame.channels import ChannelSpec, rayleigh_state_probs
from specgame.game import Contention, GameSpec
from specgame.simulator import SimConfig, sweep_configs

# Discrete transmission rates of the five-state link model, packets per slot.
RATE_STEPS = (0.0, 1.0, 2.0, 3.0, 6.0)

# Interior SNR thresholds (linear scale) between the five states, calibrated
# so a 5 dB average-SNR channel yields state probabilities
# (0.3376, 0.2348, 0.2517, 0.1757, 0.0002) up to rounding.
SNR_THRESHOLDS = (
    1.3024968714769842,
    2.6865670606103915,
    5.495531430172048,
    26.933729756554143,
)


class ConfigError(ValueError):
    """A config file failed validation; the message carries the key path."""


@contextmanager
def config_errors(path: str = ""):
    """Raise a ValueError from the block as a ConfigError at `path`."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{path}{err}") from err


def snr_channel(
    id: int, avg_snr_db: float, rates=RATE_STEPS, thresholds=SNR_THRESHOLDS
) -> ChannelSpec:
    """A rate-adaptive Rayleigh-fading channel at the given average SNR.

    `thresholds` are the interior SNR band edges (linear scale) between the
    states of `rates`; the outer edges are 0 and +inf.
    """
    probs = rayleigh_state_probs(avg_snr_db, (0.0, *thresholds, math.inf))
    return ChannelSpec(id=id, rates=rates, probs=probs)


@dataclass(frozen=True)
class ExperimentConfig:
    """A SimConfig plus artifact plumbing and an optional sweep request."""

    sim: SimConfig
    out_dir: str = "runs"
    plot: bool = False
    preset: str | None = None
    sweep_variable: str | None = None
    sweep_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.sweep_variable is None) != (self.sweep_values is None):
            raise ConfigError(
                "sweep: variable and values must be given together"
            )
        if self.sweep_variable is not None:
            with config_errors():
                sweep_configs(self.sim, self.sweep_variable, self.sweep_values)
            if not self.sweep_values:
                raise ConfigError("sweep.values: must be a non-empty list")


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown config key {path}{key!r}")


def _get(mapping: dict, key: str, kind, path: str, default=None, required=False):
    if key not in mapping or mapping[key] is None:
        if required:
            raise ConfigError(f"{path}{key}: required")
        return default
    value = mapping[key]
    # bool is an int subclass; keep the two apart
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(
            f"{path}{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _numbers(mapping: dict, key: str, path: str, required=False) -> tuple[float, ...] | None:
    """The list of numbers at `key` as floats; a bool, string, null or
    nested list in it is rejected."""
    values = _get(mapping, key, list, path, required=required)
    if values is not None and not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ConfigError(f"{path}{key}: expected a list of numbers")
    return None if values is None else tuple(float(v) for v in values)


def _parse_channel(data, index: int) -> ChannelSpec:
    path = f"game.channels[{index}]."
    if not isinstance(data, dict):
        raise ConfigError(f"game.channels[{index}]: expected an object")
    _reject_unknown(data, {"id", "rates", "probs", "avg_snr_db", "thresholds_db"}, path)
    id = _get(data, "id", int, path, default=index + 1)
    rates = _numbers(data, "rates", path, required=True)
    probs = _numbers(data, "probs", path)
    snr = _get(data, "avg_snr_db", float, path)
    thresholds_db = _numbers(data, "thresholds_db", path)
    if (probs is None) == (snr is None):
        raise ConfigError(
            f"game.channels[{index}]: give exactly one of probs or avg_snr_db"
        )
    if probs is not None and thresholds_db is not None:
        raise ConfigError(
            f"game.channels[{index}]: thresholds_db only applies with avg_snr_db"
        )
    with config_errors(f"game.channels[{index}]: "):
        if probs is not None:
            return ChannelSpec(id=id, rates=rates, probs=probs)
        thresholds = SNR_THRESHOLDS
        if thresholds_db is not None:
            thresholds = tuple(10.0 ** (t / 10.0) for t in thresholds_db)
        return snr_channel(id, snr, rates, thresholds)


def _parse_game(data) -> GameSpec:
    if not isinstance(data, dict):
        raise ConfigError("game: expected an object")
    _reject_unknown(
        data, {"thetas", "theta", "n_users", "channels", "contention"}, "game."
    )
    channels_raw = _get(data, "channels", list, "game.", required=True)
    channels = tuple(_parse_channel(c, i) for i, c in enumerate(channels_raw))
    thetas = _numbers(data, "thetas", "game.")
    theta = _get(data, "theta", float, "game.")
    n_users = _get(data, "n_users", int, "game.")
    if (thetas is None) == (theta is None):
        raise ConfigError("game: give exactly one of thetas or theta + n_users")
    if thetas is None:
        if n_users is None:
            raise ConfigError("game.n_users: required alongside theta")
        thetas = (theta,) * n_users
    elif n_users is not None and n_users != len(thetas):
        raise ConfigError("game.n_users: contradicts the length of thetas")
    contention = _get(data, "contention", str, "game.", default="fair_share")
    with config_errors("game: "):
        return GameSpec(
            thetas=thetas,
            channels=channels,
            contention=Contention.from_str(contention),
        )


_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def _plain_keys(cls, *special) -> dict[str, type]:
    """{JSON key: type} of a config dataclass's fields but `special`; an
    optional field (`float | None`) takes its inner type."""
    return {
        f.name: _TYPES[f.type.removesuffix(" | None")]
        for f in fields(cls)
        if f.name not in special
    }


# A JSON key is the name of its field, and a missing or null key leaves the
# field's default. `game` and `lam`, written "lambda", have their own code.
SIM_KEYS = _plain_keys(SimConfig, "game", "lam")
EXPERIMENT_KEYS = _plain_keys(ExperimentConfig, "sim", "sweep_variable", "sweep_values")
_TOP_KEYS = {"game", "lambda", "sweep", *SIM_KEYS, *EXPERIMENT_KEYS}


def _present(data: dict, keys: dict[str, type]) -> dict:
    """The type-checked values of the `keys` that `data` sets, null aside."""
    return {k: _get(data, k, kind, "") for k, kind in keys.items() if data.get(k) is not None}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    _reject_unknown(data, _TOP_KEYS, "")
    game = _parse_game(_get(data, "game", dict, "", required=True))
    lam_raw = data.get("lambda")
    if lam_raw is None or lam_raw == "1/t":
        lam = None
    elif isinstance(lam_raw, (int, float)) and not isinstance(lam_raw, bool):
        lam = float(lam_raw)
    else:
        raise ConfigError('lambda: expected a number or the string "1/t"')
    with config_errors():
        sim = SimConfig(game=game, lam=lam, **_present(data, SIM_KEYS))
    sweep_raw = _get(data, "sweep", dict, "")
    variable = values = None
    if sweep_raw is not None:
        _reject_unknown(sweep_raw, {"variable", "values"}, "sweep.")
        variable = _get(sweep_raw, "variable", str, "sweep.", required=True)
        values = _numbers(sweep_raw, "values", "sweep.", required=True)
    return ExperimentConfig(
        sim=sim,
        sweep_variable=variable,
        sweep_values=values,
        **_present(data, EXPERIMENT_KEYS),
    )


def parse_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: malformed JSON: {err}") from err
    return config_from_dict(data)


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON form of a config; config_from_dict inverts it exactly."""
    sim = config.sim
    # every SimConfig field in field order, `lam` under "lambda"
    out = {
        ("lambda" if f.name == "lam" else f.name): getattr(sim, f.name)
        for f in fields(SimConfig)
    }
    out["game"] = {
        "thetas": list(sim.game.thetas),
        "contention": sim.game.contention.value,
        "channels": [
            {"id": c.id, "rates": list(c.rates), "probs": list(c.probs)}
            for c in sim.game.channels
        ],
    }
    out["lambda"] = "1/t" if sim.lam is None else sim.lam
    out.update((key, getattr(config, key)) for key in EXPERIMENT_KEYS)
    if config.sweep_variable is not None:
        out["sweep"] = {
            "variable": config.sweep_variable,
            "values": list(config.sweep_values),
        }
    return out


def _preset_game(theta: float, n_users: int) -> dict:
    return {
        "theta": theta,
        "n_users": n_users,
        "contention": "slot_winner",
        "channels": [
            {"id": i + 1, "rates": list(RATE_STEPS), "avg_snr_db": snr}
            for i, snr in enumerate((5.0, 6.0, 7.0, 8.0, 9.0))
        ],
    }


def _fig2() -> dict:
    # Eight users on the five reference channels, delay-tolerant exponent.
    # A constant estimator gain: congestion keeps shifting while the others
    # learn, and a 1/t schedule freezes the estimates before it settles.
    return {
        "game": _preset_game(theta=0.01, n_users=8),
        "iterations": 2000,
        "trials": 200,
        "algorithm": "learn",
        "eta": 0.1,
        "lambda": 0.3,
        "preset": "fig2",
    }


def _eta_sweep() -> dict:
    base = _fig2()
    base.update(
        preset="eta_sweep",
        trials=50,
        sweep={"variable": "eta", "values": [0.05, 0.1, 0.2, 0.4]},
    )
    return base


def _users(theta: float, name: str) -> dict:
    return {
        "game": _preset_game(theta=theta, n_users=5),
        "iterations": 2000,
        "trials": 200,
        "algorithm": "learn",
        "lambda": 0.3,
        "preset": name,
        "sweep": {"variable": "users", "values": [5, 8, 15]},
    }


def _sla_mix() -> dict:
    # nine users with individually assigned exponents, reward-inaction learner
    thetas = [0.02, 0.05, 0.1, 0.2, 0.5, 0.002, 0.005, 0.01, 0.001]
    game = _preset_game(theta=0.01, n_users=9)
    del game["theta"], game["n_users"]
    game["thetas"] = thetas
    return {
        "game": game,
        "iterations": 3000,
        "trials": 100,
        "algorithm": "sla",
        "sla_gain": 0.08,
        "preset": "sla_mix",
    }


PRESETS = {
    "fig2": _fig2,
    "eta_sweep": _eta_sweep,
    "users_loose": lambda: _users(0.01, "users_loose"),
    "users_strict": lambda: _users(0.1, "users_strict"),
    "sla_mix": _sla_mix,
}


def preset_config(name: str) -> ExperimentConfig:
    """Expand a named preset into a fully validated config."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r} (available: {known})")
    return config_from_dict(PRESETS[name]())
