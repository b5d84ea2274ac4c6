"""The benchmark's workloads: the configs each one writes, the CLI commands of
one operation, and the checks of their outputs.

All three use the network of the paper's Fig. 2 setting: five channels with
rates 0, 1, 2, 3 and 6 packets per slot at 5 to 9 dB average SNR, shared by
slot-winner contention. The seed only picks each config's `base_seed`, so
every seed asks for the same amount of work.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import numpy as np

import checks
import oracle
from specgame.cli import ODE_DT
from specgame.config import parse_config
from specgame.dynamics import integrate

RATES = [0.0, 1.0, 2.0, 3.0, 6.0]
SNRS_DB = (5.0, 6.0, 7.0, 8.0, 9.0)
SLA_MIX_THETAS = (0.02, 0.05, 0.1, 0.2, 0.5, 0.002, 0.005, 0.01, 0.001)


def network(thetas, snrs_db=SNRS_DB) -> dict:
    return {
        "thetas": list(thetas),
        "contention": "slot_winner",
        "channels": [
            {"id": i + 1, "rates": RATES, "avg_snr_db": snr} for i, snr in enumerate(snrs_db)
        ],
    }


def oracle_game(cfg) -> oracle.Game:
    """The plain-number form of a parsed config's game, for the oracle."""
    game = cfg.sim.game
    return oracle.Game(
        channels=tuple(oracle.Channel(ch.rates, ch.probs) for ch in game.channels),
        thetas=game.thetas,
        contention=game.contention.value,
    )


class Workload:
    """Configs written and parsed at set-up; commands run once per operation."""

    def __init__(self, seed: int, config_dir: Path):
        self.rng = random.Random(seed)
        self.config_dir = config_dir
        self.paths: dict[str, Path] = {}
        self.configs: dict = {}
        self.games: dict[str, oracle.Game] = {}

    def add_config(self, label: str, data: dict) -> None:
        data = {**data, "base_seed": self.rng.randrange(2**32)}
        path = self.config_dir / f"{label}.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        self.paths[label] = path
        self.configs[label] = parse_config(path)
        self.games[label] = oracle_game(self.configs[label])

    def commands(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: Path, stdout: list[str]) -> None:
        raise NotImplementedError

    def final_check(self, out: Path, main) -> None:
        """Runs once, after the last operation, on its outputs."""

    def extra_timings(self) -> dict[str, float]:
        """Extra timings for the traced run, taken outside any operation."""
        return {}


class Experiment(Workload):
    """fig2 `learn`, the same network under `random`, and `sla_mix` under `sla`."""

    name = "experiment"
    LEARN_TRIALS = 4
    RANDOM_TRIALS = 16
    SLA_TRIALS = 2
    PREFIX_TRIALS = 2

    def __init__(self, seed, config_dir):
        super().__init__(seed, config_dir)
        fig2 = network([0.01] * 8)
        common = {"iterations": 2000, "eta": 0.1, "lambda": 0.3}
        self.add_config(
            "learn", {"game": fig2, **common, "trials": self.LEARN_TRIALS, "algorithm": "learn"}
        )
        self.add_config(
            "random", {"game": fig2, **common, "trials": self.RANDOM_TRIALS, "algorithm": "random"}
        )
        self.add_config(
            "sla_mix",
            {
                "game": network(SLA_MIX_THETAS),
                "iterations": 3000,
                "trials": self.SLA_TRIALS,
                "algorithm": "sla",
                "sla_gain": 0.08,
            },
        )

    def commands(self, out):
        return [
            ["experiment", "--config", str(path), "--out", str(out / label)]
            for label, path in self.paths.items()
        ]

    def check(self, out, stdout):
        means = {
            label: checks.check_experiment(
                out / label, self.games[label], cfg.sim.iterations, cfg.sim.algorithm
            )
            for label, cfg in self.configs.items()
        }
        checks.check_learning_beats_random(means["learn"], means["random"])

    def final_check(self, out, main):
        fewer = out / "learn_fewer"
        argv = ["experiment", "--config", str(self.paths["learn"]), "--out", str(fewer)]
        if main([*argv, "--trials", str(self.PREFIX_TRIALS)]) != 0:
            raise checks.CheckError("the rerun with fewer trials failed")
        checks.check_trial_prefix(out / "learn", fewer)


class LearnTrace(Workload):
    """One traced fig2 `learn` trial, with its CSVs and SVG charts."""

    name = "learn-trace"

    def __init__(self, seed, config_dir):
        super().__init__(seed, config_dir)
        self.add_config(
            "learn",
            {"game": network([0.01] * 8), "iterations": 2000, "eta": 0.1, "lambda": 0.3},
        )

    def commands(self, out):
        return [["learn", "--config", str(self.paths["learn"]), "--plot", "--out", str(out)]]

    def check(self, out, stdout):
        sim = self.configs["learn"].sim
        checks.check_learn_trace(out, self.games["learn"], sim.iterations, sim.epsilon, stdout[0])


class Analysis(Workload):
    """`analyze` on the fig2 network, and `ode` on its first four channels and six users.

    N=6, M=4 is the largest cut of the network whose field evaluator runs in
    a few seconds; one size up (N=7, M=5) costs about 40 times more per step.
    """

    name = "analysis"
    ODE_STEPS = 500

    def __init__(self, seed, config_dir):
        super().__init__(seed, config_dir)
        self.add_config("analyze", {"game": network([0.01] * 8)})
        self.add_config(
            "ode", {"game": network([0.01] * 6, SNRS_DB[:4]), "iterations": self.ODE_STEPS}
        )

    def commands(self, out):
        return [
            ["analyze", "--config", str(self.paths["analyze"]), "--out", str(out / "analyze")],
            ["ode", "--config", str(self.paths["ode"]), "--out", str(out / "ode")],
        ]

    def check(self, out, stdout):
        checks.check_analyze(out / "analyze", self.games["analyze"])
        checks.check_ode(out / "ode", self.games["ode"], self.ODE_STEPS)

    def extra_timings(self):
        # `integrate` was bound at import, before any tracing, so this call
        # adds no span of its own.
        game = self.configs["ode"].sim.game
        start = np.full((game.n_users, game.n_channels), 1.0 / game.n_channels)
        t0 = time.perf_counter()
        integrate(game, start, dt=ODE_DT, steps=0)
        return {"field_setup_s": time.perf_counter() - t0, "ode_steps": self.ODE_STEPS}


WORKLOADS = {w.name: w for w in (Experiment, LearnTrace, Analysis)}
