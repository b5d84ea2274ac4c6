"""SHA-256 digests of every artifact of a fixed set of specgame commands.

Runs `analyze`, `ode`, `learn`, `experiment --trace` and `sweep` (on the
presets with a sweep section), all with `--plot`, on every preset at small
sizes, and one long `ode` run on fig2 (2,000 steps, where rows approach the
vertices), with the package taken from TREE/src. Then it writes small
configs on the fig2 network to OUT/configs, one for each engine path no
preset takes (fair-share contention, `sla`, and the held and per-slot
`random` baseline), and runs `experiment --trace --plot` on each, saved
under configs/LABEL. Prints `sha256  path` for each file the commands write
and for each command's standard output, saved as GROUP/LABEL.stdout; paths
are relative to --out. Two trees give the same listing when every artifact
is byte-identical. `--compare OLD_TREE` runs OLD_TREE and then --root into
the same --out, prints only the paths whose digests differ (or that one tree
alone writes), then a count on stderr, and exits 1 if any differs:

    python3 scripts/artifact_digests.py --root NEW_TREE --out /tmp/digests --compare OLD_TREE

Runs compared by hand need the same --out too: `resolved_config.json` and
the printed summary lines name the output directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

COMMANDS = {
    "analyze": ["--plot"],
    "ode": ["--iterations", "200", "--plot"],
    "learn": ["--iterations", "500", "--plot"],
    "experiment": ["--trials", "3", "--iterations", "200", "--trace", "--plot"],
    "sweep": ["--trials", "2", "--iterations", "100", "--plot"],
}

# (preset, label, command and flags) run once, after the set above
LONG_RUNS = [("fig2", "ode-2000", ["ode", "--iterations", "2000", "--plot"])]

# the fig2 network: eight users of exponent 0.01 on five Rayleigh channels
FIG2_NETWORK = {
    "theta": 0.01,
    "n_users": 8,
    "channels": [
        {"id": m + 1, "rates": [0.0, 1.0, 2.0, 3.0, 6.0], "avg_snr_db": 5.0 + m}
        for m in range(5)
    ],
}

# label -> (contention, algorithm, random_per_slot); fig2 itself is learn
# under slot-winner contention
ENGINE_PATHS = {
    "learn-fair": ("fair_share", "learn", False),
    "sla": ("slot_winner", "sla", False),
    "sla-fair": ("fair_share", "sla", False),
    "random-held": ("slot_winner", "random", False),
    "random-held-fair": ("fair_share", "random", False),
    "random-slot": ("slot_winner", "random", True),
    "random-slot-fair": ("fair_share", "random", True),
}

# prints each preset name, and whether it has a sweep section
LIST_PRESETS = (
    "from specgame.config import PRESETS, preset_config\n"
    "for name in sorted(PRESETS):\n"
    "    print(name, preset_config(name).sweep_variable is not None)\n"
)


def run(root: Path, args: list[str], cwd: Path) -> str:
    """Standard output of `python3 args` with the tree's package on the path."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def engine_config(contention: str, algorithm: str, per_slot: bool) -> dict:
    return {
        "game": {**FIG2_NETWORK, "contention": contention},
        "iterations": 200,
        "trials": 3,
        "base_seed": 11,
        "algorithm": algorithm,
        "eta": 0.1,
        "lambda": 0.3,
        "random_per_slot": per_slot,
    }


def record(root: Path, out: Path, group: str, label: str, argv: list[str]):
    """Run one command into OUT/GROUP/LABEL; yields (digest, path) for each
    file it leaves, the path relative to OUT."""
    target = out / group / label
    shutil.rmtree(target, ignore_errors=True)
    stdout = run(root, ["-m", "specgame.cli", *argv, "--out", str(target)], out)
    log = out / group / f"{label}.stdout"
    log.write_text(stdout, encoding="utf-8")
    for path in [log, *sorted(p for p in target.rglob("*") if p.is_file())]:
        yield sha256(path), str(path.relative_to(out))


def digests(root: Path, out: Path):
    """(digest, path) for every artifact of the command set, run from root."""
    presets = [line.split() for line in run(root, ["-c", LIST_PRESETS], out).splitlines()]
    for preset, has_sweep in presets:
        for command, flags in COMMANDS.items():
            if command == "sweep" and has_sweep != "True":
                continue
            yield from record(root, out, preset, command, [command, "--preset", preset, *flags])
    for preset, label, argv in LONG_RUNS:
        yield from record(root, out, preset, label, [*argv[:1], "--preset", preset, *argv[1:]])
    configs = out / "configs"
    configs.mkdir(exist_ok=True)
    for label, path_args in ENGINE_PATHS.items():
        path = configs / f"{label}.json"
        path.write_text(json.dumps(engine_config(*path_args), indent=2) + "\n", encoding="utf-8")
        argv = ["experiment", "--config", str(path), "--trace", "--plot"]
        yield from record(root, out, "configs", label, argv)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True, help="tree whose src/ to run")
    ap.add_argument("--out", type=Path, required=True, help="directory for the artifacts")
    ap.add_argument("--compare", type=Path, metavar="OLD_TREE", help="tree to compare with")
    args = ap.parse_args()
    root, out = args.root.resolve(), args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    if args.compare is None:
        for digest, path in digests(root, out):
            print(f"{digest}  {path}", flush=True)
        return
    old = {path: digest for digest, path in digests(args.compare.resolve(), out)}
    new = {path: digest for digest, path in digests(root, out)}
    differ = sorted(path for path in old.keys() | new.keys() if old.get(path) != new.get(path))
    for path in differ:
        print(path)
    print(f"{len(differ)} of {len(old.keys() | new.keys())} paths differ", file=sys.stderr)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
