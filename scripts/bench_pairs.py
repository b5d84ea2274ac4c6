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
        --first-seed 2001 --seconds 30 --record BENCH.json

`--record FILE` also writes those figures as JSON: the CPU count, each
tree's git commit (null outside a git checkout, with `dirty` true when its
work tree differs from the commit), and per workload and metric each
tree's median, quartiles and wins.

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


def commit(tree: Path) -> dict:
    """The git commit a tree is at, and whether its work tree differs."""
    git = ["git", "-C", str(tree)]
    head = subprocess.run(
        [*git, "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True
    )
    top, _, sha = head.stdout.strip().partition("\n")
    if head.returncode != 0 or Path(top).resolve() != tree:
        return {"commit": None, "dirty": None}
    status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True)
    return {"commit": sha, "dirty": bool(status.stdout.strip())}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per tree, its run counts and, per metric, its spread and wins."""
    out = {"pairs": len(runs["change"]), "trees": {}, "metrics": {}}
    for side, results in runs.items():
        out["trees"][side] = {
            "incorrect_runs": sum(not r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
        }
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        ties = sum(c == b for b, c in zip(base, change))
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": {**spread(base), "wins": len(base) - wins - ties},
            "change": {**spread(change), "wins": wins},
            "ties": ties,
            "shift": statistics.median(change) / statistics.median(base) - 1.0,
        }
    return out


def report(workload: str, result: dict) -> None:
    print(f"{workload}: {result['pairs']} pairs")
    for side, counts in result["trees"].items():
        print(
            f"  {side}: {counts['incorrect_runs']} incorrect runs, "
            f"{counts['failed']} of {counts['attempted']} operations failed"
        )
    fmt = lambda s: f"{s['median']:.4g} [{s['q1']:.4g}-{s['q3']:.4g}]"
    for name, m in result["metrics"].items():
        print(
            f"  {name}: {fmt(m['base'])} -> {fmt(m['change'])} ({m['shift']:+.1%}), "
            f"change better in {m['change']['wins']}/{result['pairs']}, {m['ties']} ties"
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
    ap.add_argument("--record", type=Path, help="also write the figures to this JSON file")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be >= 2, for quartiles")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    path = args.path.resolve()
    if any(path == tree or tree in path.parents for tree in trees.values()):
        ap.error("--path must lie outside both trees: it is removed before every run")
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "first_seed": args.first_seed,
        "trees": {side: commit(tree) for side, tree in trees.items()},
        "workloads": {},
    }
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
            record["workloads"][workload] = summary(runs, metrics)
            report(workload, record["workloads"][workload])
            if args.record:
                args.record.write_text(json.dumps(record, indent=2) + "\n")
    finally:
        shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    main()
