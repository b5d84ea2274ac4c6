"""The names the benchmark in perfbench/ calls or wraps must stay importable.

`perfbench/run.py` wraps every function in its TRACED list by name and
imports `simulator.worker_count`; `perfbench/workloads.py` imports
`cli.ODE_DT`. If any of them goes, every benchmark run fails. Only their
call signatures may change.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_names():
    # run.py imports its sibling calibration.py at module level
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(PERFBENCH))
    return [(module, function) for module, function, _ in run.TRACED]


def test_every_traced_function_exists():
    names = traced_names()
    assert len(names) >= 21
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []


def test_harness_imports_exist():
    from specgame.cli import ODE_DT
    from specgame.simulator import worker_count

    assert ODE_DT > 0
    assert worker_count() >= 1
