"""Microseconds per learner slot step, stage by stage.

Runs the learner configs of the benchmark's `experiment` workload: fig2
`learn` (8 users of exponent 0.01 on the five-channel fig2 network,
slot-winner contention, 4 trials x 2,000 slots, eta 0.1, lambda 0.3) and
`sla_mix` under `sla` (9 users of mixed exponents, 2 trials x 3,000 slots).
Each config runs as one block of trials, so the engine takes one slot step
per slot.

First it times whole `run_experiment` calls as they are. Then it wraps
the builders of the slot step from outside the package (`simulator._sampler`,
`simulator._contender` and the policy's `bind`), so that the sampling,
contention and update functions they bind are timed, runs again, and sums
the time spent inside each stage, less the cost of the wrapper's own two
clock reads. The rest of the loop (chunk draws, channel states, convergence
and checks, scoring) is taken per repeat, as that repeat's plain run less
its own three stages. Prints one JSON line, in us per slot step:

    PYTHONPATH=src python3 scripts/slot_profile.py --repeats 7

Every figure is the best over the repeats, since noise from other work on
the machine only adds time. Each repeat runs the plain and the wrapped run
back to back and checks that its stages fit in its own plain run; `rest` is
the best over the repeats where they fit, so it never reads below zero, and
the script stops if they fit in no repeat.
"""

import argparse
import json
import time

from specgame import simulator
from specgame.config import config_from_dict

RATES = [0.0, 1.0, 2.0, 3.0, 6.0]
SNRS_DB = (5.0, 6.0, 7.0, 8.0, 9.0)
SLA_MIX_THETAS = (0.02, 0.05, 0.1, 0.2, 0.5, 0.002, 0.005, 0.01, 0.001)


def network(thetas) -> dict:
    return {
        "thetas": list(thetas),
        "contention": "slot_winner",
        "channels": [
            {"id": i + 1, "rates": RATES, "avg_snr_db": snr} for i, snr in enumerate(SNRS_DB)
        ],
    }


def configs(seed: int) -> dict:
    common = {"iterations": 2000, "eta": 0.1, "lambda": 0.3, "base_seed": seed}
    learn = {"game": network([0.01] * 8), **common, "trials": 4, "algorithm": "learn"}
    sla = {
        "game": network(SLA_MIX_THETAS),
        "iterations": 3000,
        "trials": 2,
        "algorithm": "sla",
        "sla_gain": 0.08,
        "base_seed": seed,
    }
    return {
        label: config_from_dict(data).sim for label, data in (("learn", learn), ("sla_mix", sla))
    }


class Stages:
    """Wraps the builders of the engine's slot step, so that each stage
    function they return sums the time spent in it."""

    def __init__(self, policy: type) -> None:
        self.seconds = {"sample": 0.0, "contend": 0.0, "update": 0.0}
        self.targets = [
            (simulator, "_sampler", "sample"),
            (simulator, "_contender", "contend"),
            (policy, "bind", "update"),
        ]
        self.saved = []

    def _wrap(self, build, stage):
        seconds, clock = self.seconds, time.perf_counter

        def timed_build(*args):
            fn = build(*args)

            def timed(*args):
                start = clock()
                fn(*args)
                seconds[stage] += clock() - start

            return timed

        return timed_build

    def __enter__(self):
        for owner, name, stage in self.targets:
            fn = owner.__dict__[name]
            self.saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, stage))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, fn in self.saved:
            setattr(owner, name, fn)


def clock_cost(reads: int = 200_000) -> float:
    """Seconds of one pair of clock reads, as the wrapper takes them."""
    clock = time.perf_counter
    start = clock()
    for _ in range(reads):
        clock()
        clock()
    return (clock() - start) / reads


def profile(config, repeats: int) -> dict:
    steps = config.iterations  # one block, so one step per slot
    policy = simulator.POLICIES[config.algorithm]
    plain, rest, stages = [], [], {"sample": [], "contend": [], "update": []}
    pair = clock_cost()
    for _ in range(repeats):
        start = time.perf_counter()
        simulator.run_experiment(config)
        plain.append(time.perf_counter() - start)
        with Stages(policy) as wrapped:
            simulator.run_experiment(config)
        timed = [seconds - steps * pair for seconds in wrapped.seconds.values()]
        for stage, seconds in zip(stages, timed):
            stages[stage].append(seconds)
        # a wrapper that misses what runs per slot reads nothing, and one that
        # times more than the slot step reads more than the plain run beside it
        if 0.0 < min(timed) <= sum(timed) < plain[-1]:
            rest.append(plain[-1] - sum(timed))
    us = {stage: 1e6 * min(v) / steps for stage, v in stages.items()}
    total = 1e6 * min(plain) / steps
    if not rest:
        raise SystemExit(
            f"{config.algorithm}: in no repeat did the stages fit in the plain run"
            f" (best stages {us}, best plain {total:.3f} us a slot)"
        )
    us["rest"] = 1e6 * min(rest) / steps
    us["total"] = total
    return {name: round(value, 3) for name, value in us.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7, help="runs of each config")
    ap.add_argument("--seed", type=int, default=2001, help="base seed of both configs")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    result = {label: profile(cfg, args.repeats) for label, cfg in configs(args.seed).items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
