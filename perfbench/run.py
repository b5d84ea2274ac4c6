"""Run one benchmark workload against the specgame sources in ./src.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 30 --trace 0

Run from the repository root. One process, one closed loop: an operation
(all of the workload's CLI commands, run in process through
`specgame.cli.main`) starts only when the previous one has finished and its
outputs have been checked, until `--seconds` have passed. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics from wrapped functions with `--trace 1`. Times are scaled to a
reference machine speed by calibration.py. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

WORKLOAD_NAMES = ("experiment", "learn-trace", "analysis")
LEARNERS = ("learn", "sla", "random")

# (module, function, span name); functions sharing a span name are summed.
TRACED = [
    ("specgame.config", "parse_config", "config.parse_config"),
    ("specgame.channels", "sample_realization", "channels.sample_realization"),
    *(
        ("specgame.learning", fn, f"learning.{fn}")
        for fn in (
            "select_actions",
            "sample_profile",
            "update_estimates",
            "update_probabilities",
            "is_converged",
            "sla_update",
            "random_baseline_profile",
        )
    ),
    *(
        ("specgame.simulator", fn, f"simulator.{fn}")
        for fn in ("resolve_contention", "run_trial", "run_experiment")
    ),
    ("specgame.capacity", "empirical_effective_capacity", "capacity.empirical_effective_capacity"),
    ("specgame.capacity", "effective_capacity", "capacity.effective_capacity"),
    *(
        ("specgame.game", fn, f"game.{fn}")
        for fn in ("utility", "enumerate_nash", "verify_potentials", "ordinal_potential")
    ),
    ("specgame.dynamics", "integrate", "dynamics.integrate"),
    ("specgame.cli", "main", "cli.main"),
    *(
        ("specgame.plots", fn, "plots.charts")
        for fn in (
            "probability_chart",
            "estimate_chart",
            "aggregate_chart",
            "trials_chart",
            "sweep_chart",
            "potential_chart",
        )
    ),
]
SPANS = list(dict.fromkeys(name for _, _, name in TRACED))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_program(root: Path):
    """Import specgame from `root`/src, refusing any other copy."""
    src = root / "src"
    if not (src / "specgame" / "__init__.py").is_file():
        raise SystemExit(f"error: no specgame sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import specgame.cli

    if Path(specgame.cli.__file__).resolve().parent != (src / "specgame").resolve():
        raise SystemExit(f"error: imported specgame from {specgame.cli.__file__}, not {src}")
    return specgame.cli


class SlotMeter:
    """Simulator wall time per trial-slot, per learner, from traced calls."""

    def __init__(self):
        self.seconds = dict.fromkeys(LEARNERS, 0.0)
        self.trial_slots = dict.fromkeys(LEARNERS, 0)

    def on_experiment(self, args, duration, parent):
        cfg = args[0]
        self.seconds[cfg.algorithm] += duration
        self.trial_slots[cfg.algorithm] += cfg.trials * cfg.iterations

    def on_trial(self, args, duration, parent):
        if parent != "simulator.run_experiment":
            cfg = args[0]
            self.seconds[cfg.algorithm] += duration
            self.trial_slots[cfg.algorithm] += cfg.iterations

    def us_per_trial_slot(self, learner: str) -> float:
        slots = self.trial_slots[learner]
        return self.seconds[learner] / slots * 1e6 if slots else 0.0


def run_operation(cli, workload, out: Path):
    """One operation: every command of the workload, in order.

    Returns (ok, raw wall, raw cpu, scaled wall, scaled cpu, raw wall per
    command, captured stdout per command). Raw times exclude the calibration
    probes that run during the operation; scaled times are raw times in
    reference seconds.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    stdout, command_walls = [], []
    ok = True
    with calibration.Sampler() as sampler:
        spent_wall, spent_cpu = sampler.spent_wall, sampler.spent_cpu
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in workload.commands(out):
            buf = io.StringIO()
            start, spent = time.perf_counter(), sampler.spent_wall
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception:  # a crash counts as a failed operation, not a dead run
                traceback.print_exc()
                code = -1
            command_walls.append(time.perf_counter() - start - (sampler.spent_wall - spent))
            stdout.append(buf.getvalue())
            if code != 0:
                print(f"command {argv} exited {code}", file=sys.stderr)
                ok = False
    wall = time.perf_counter() - wall0 - (sampler.spent_wall - spent_wall)
    cpu = time.process_time() - cpu0 - (sampler.spent_cpu - spent_cpu)
    k = sampler.scale()
    return ok, wall, cpu, wall * k, cpu * k, command_walls, stdout


def quiet(main):
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    return run


def run_check(check, *args) -> bool:
    """False when the outputs fail a check or cannot even be read as expected."""
    try:
        check(*args)
    except Exception:  # a malformed output is a wrong output
        traceback.print_exc()
        return False
    return True


def csv_bytes(out: Path) -> int:
    return sum(path.stat().st_size for path in out.rglob("*.csv"))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    # the trial pool keeps its default size: one worker per CPU
    os.environ.pop("SPECGAME_THREADS", None)
    cli = load_program(root)
    import workloads
    from specgame.simulator import worker_count

    scratch = root / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        config_dir = run_dir / "configs"
        config_dir.mkdir()
        workload = workloads.WORKLOADS[args.workload](args.seed, config_dir)
        # unscaled: probes taken after set-up track the import phase worse than none
        setup_s = time.perf_counter() - _T0

        tracer = meter = None
        if args.trace:
            import tracing

            tracer, meter = tracing.Tracer(), SlotMeter()
            observers = {
                "simulator.run_experiment": meter.on_experiment,
                "simulator.run_trial": meter.on_trial,
            }
            for module, function, name in TRACED:
                tracer.install(module, function, name, observers.get(name))

        out = run_dir / "op"
        walls, cpus, scaled_walls, scaled_cpus, sizes, extras = [], [], [], [], [], []
        per_command = []
        failed = 0
        correct = True
        start = time.perf_counter()
        while True:
            ok, wall, cpu, scaled_wall, scaled_cpu, command_walls, stdout = run_operation(
                cli, workload, out
            )
            per_command.append(command_walls)
            walls.append(wall)
            cpus.append(cpu)
            scaled_walls.append(scaled_wall)
            scaled_cpus.append(scaled_cpu)
            if ok:
                sizes.append(csv_bytes(out))
                correct &= run_check(workload.check, out, stdout)
            else:
                failed += 1
            if tracer is not None:
                extras.append(workload.extra_timings())
            if time.perf_counter() - start >= args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()
        if ok:
            correct &= run_check(workload.final_check, out, quiet(cli.main))

        ops = len(walls)
        speed = sum(scaled_walls) / sum(walls)
        print(
            f"{args.workload}: {ops} operations, raw median {statistics.median(walls):.4f} s "
            f"wall and {statistics.median(cpus):.4f} s cpu, speed scale {speed:.3f}, "
            f"{worker_count()} trial workers",
            file=sys.stderr,
        )
        for i, argv in enumerate(workload.commands(out)):
            times = [op[i] for op in per_command if len(op) > i]
            print(
                f"  {argv[0]} {Path(argv[2]).name}: raw median {statistics.median(times):.4f} s, "
                f"scaled {statistics.median(times) * speed:.4f} s",
                file=sys.stderr,
            )
        if tracer is None:
            metrics = end_to_end_metrics(setup_s, scaled_walls, scaled_cpus)
        else:
            metrics = layer_metrics(tracer.totals(), meter, scaled_walls, speed, sizes, extras)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end_metrics(setup_s, walls, cpus):
    """Raw set-up time, and median per-operation times in reference seconds."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }


def layer_metrics(totals, meter, walls, k, sizes, extras):
    """Per-operation figures of the traced run.

    `walls` are already in reference seconds; span times are scaled by the
    run's overall speed factor `k`.
    """
    ops = len(walls)
    metrics = {}
    for name in SPANS:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "count")
        metrics[f"{name}.self_s"] = (self_s / ops * k, "s")
    for learner in LEARNERS:
        metrics[f"simulator.trial_slot_us.{learner}"] = (meter.us_per_trial_slot(learner) * k, "us")

    # a zero-step integrate is the field set-up; the rest of a full one is steps
    extras = [e for e in extras if e]
    field_setup = statistics.fmean(e["field_setup_s"] for e in extras) if extras else 0.0
    calls, _, integrate_s = totals.get("dynamics.integrate", (0, 0.0, 0.0))
    step_ms = 0.0
    if extras and calls:
        step_ms = (integrate_s / calls - field_setup) / extras[0]["ode_steps"] * 1e3
    metrics["dynamics.field_setup_s"] = (field_setup * k, "s")
    metrics["dynamics.step_ms"] = (step_ms * k, "ms")
    metrics["cli.csv_bytes"] = (statistics.fmean(sizes) if sizes else 0.0, "B")
    metrics["trace.op_s"] = (statistics.median(walls), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
