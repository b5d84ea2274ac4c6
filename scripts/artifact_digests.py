"""SHA-256 digests of every artifact of a fixed set of specgame commands.

Runs `analyze`, `ode`, `learn`, `experiment --trace` and `sweep` (on the
presets with a sweep section), all with `--plot`, on every preset at small
sizes, and one long `ode` run on fig2 (2,000 steps, where rows approach the
vertices), with the package taken from TREE/src. Prints `sha256  path` for
each file the commands write and for each command's standard output, saved
as PRESET/LABEL.stdout; paths are relative to --out. Two trees give the
same listing when every artifact is byte-identical:

    python3 scripts/artifact_digests.py --root OLD_TREE --out /tmp/digests > old.txt
    python3 scripts/artifact_digests.py --root NEW_TREE --out /tmp/digests > new.txt
    diff old.txt new.txt

Give both runs the same --out: `resolved_config.json` and the printed
summary lines name the output directory.
"""

import argparse
import hashlib
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


def record(root: Path, out: Path, preset: str, label: str, argv: list[str]) -> None:
    """Run one command into OUT/PRESET/LABEL and print the digests it leaves."""
    target = out / preset / label
    shutil.rmtree(target, ignore_errors=True)
    args = ["-m", "specgame.cli", *argv[:1], "--preset", preset, *argv[1:]]
    stdout = run(root, [*args, "--out", str(target)], out)
    log = out / preset / f"{label}.stdout"
    log.write_text(stdout, encoding="utf-8")
    for path in [log, *sorted(p for p in target.rglob("*") if p.is_file())]:
        print(f"{sha256(path)}  {path.relative_to(out)}", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True, help="tree whose src/ to run")
    ap.add_argument("--out", type=Path, required=True, help="directory for the artifacts")
    args = ap.parse_args()
    root, out = args.root.resolve(), args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    presets = [line.split() for line in run(root, ["-c", LIST_PRESETS], out).splitlines()]
    for preset, has_sweep in presets:
        for command, flags in COMMANDS.items():
            if command == "sweep" and has_sweep != "True":
                continue
            record(root, out, preset, command, [command, *flags])
    for preset, label, argv in LONG_RUNS:
        record(root, out, preset, label, argv)


if __name__ == "__main__":
    main()
