"""Paired benchmark runs of two trees, for before-and-after numbers.

For each workload and seed, copies each tree in turn to one path and runs
`perfbench/run.py` there, alternating which tree goes first from pair to
pair. Both trees thus run from the same directory, with no bytecode cache,
since set-up time and peak RSS move with the path a tree runs from. Prints
one line per run to standard error, then, per workload and end-to-end
metric of BENCHMARK.json, each tree's median and quartiles, the change of
the medians and the number of pairs the change tree wins:

    python3 scripts/bench_pairs.py --base OLD_TREE --change NEW_TREE \\
        --path /tmp/bench-tree --workloads experiment --pairs 10 \\
        --first-seed 2001 --seconds 30

Each tree needs its `perfbench/` and `src/`; the path is removed and
rewritten before every run, and removed at the end.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

IGNORE = shutil.ignore_patterns(
    ".git", ".perfbench-out", "__pycache__", ".hypothesis", ".pytest_cache"
)


def run_once(tree: Path, path: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object `perfbench/run.py` prints, run from `path`."""
    shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(tree, path, ignore=IGNORE)
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, *argv, "--seconds", str(seconds)],
        cwd=path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{tree}: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}-{q3:.4g}]"


def report(workload: str, runs: dict[str, list[dict]], metrics: list[dict]) -> None:
    print(f"{workload}: {len(runs['change'])} pairs")
    for side, results in runs.items():
        wrong = sum(not r["correct"] for r in results)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  {side}: {wrong} incorrect runs, {failed} of {attempted} operations failed")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        ties = sum(c == b for b, c in zip(base, change))
        shift = statistics.median(change) / statistics.median(base) - 1.0
        print(
            f"  {name}: {spread(base)} -> {spread(change)} "
            f"({shift:+.1%}), change better in {wins}/{len(base)}, {ties} ties"
        )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="the tree before the change")
    ap.add_argument("--change", type=Path, required=True, help="the tree after it")
    ap.add_argument("--path", type=Path, required=True, help="where each run's copy goes")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be >= 2, for quartiles")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    path = args.path.resolve()
    if any(path == tree or tree in path.parents for tree in trees.values()):
        ap.error("--path must lie outside both trees: it is removed before every run")
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        for workload in args.workloads:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                seed = args.first_seed + i
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    result = run_once(trees[side], path, workload, seed, args.seconds)
                    runs[side].append(result)
                    values = {k: v["value"] for k, v in result["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: {values}", file=sys.stderr, flush=True)
            report(workload, runs, metrics)
    finally:
        shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    main()
