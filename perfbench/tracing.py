"""Spans around the program's public functions, recorded from outside it.

`install` rebinds each named function, in every ``specgame`` module that
holds a reference to it (module attributes and module-level dicts), to a
wrapper that times the call. A span's self time is its duration minus the
part of it that its child spans cover. Children on the caller's thread run
one after another, so their durations add up; a span opened on a worker
thread with nothing open on that thread is a child of the innermost span
open on the main thread, and the union of such overlapping intervals is
what gets subtracted.

Totals live in memory, one table per thread, and are merged on demand.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "cross")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.cross: list[tuple[float, float]] = []


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class Tracer:
    """Per-name call counts, self time and total time of wrapped functions."""

    def __init__(self) -> None:
        self._main = threading.main_thread()
        self._main_stack: list[_Frame] = []
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            table: dict[str, list] = {}
            with self._lock:
                self._tables.append(table)
            state = self._local.state = (stack, table)
        return state

    def wrap(self, name: str, fn, observe=None):
        """A traced stand-in for `fn`.

        `observe(args, duration, parent_name)` runs after each call, for
        figures derived from the call's arguments.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._thread_state()
            parent = stack[-1] if stack else None
            cross = parent is None and stack is not self._main_stack and bool(self._main_stack)
            if cross:
                parent = self._main_stack[-1]
            frame = _Frame(name, perf_counter())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame.start
                covered = frame.child + _union_length(frame.cross)
                acc = table.get(name)
                if acc is None:
                    acc = table[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += duration - covered
                acc[2] += duration
                if cross:
                    parent.cross.append((frame.start, end))
                elif parent is not None:
                    parent.child += duration
                if observe is not None:
                    observe(args, duration, None if parent is None else parent.name)

        return traced

    def install(self, module: str, function: str, name: str, observe=None) -> None:
        """Route every call of ``module.function`` through a span called `name`."""
        original = getattr(sys.modules[module], function)
        traced = self.wrap(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("specgame"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, traced)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._restore.append((value, key, original))
                            value[key] = traced

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, total seconds), over all threads."""
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s, total_s) in list(table.items()):
                acc = merged.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += total_s
        return {name: tuple(acc) for name, acc in merged.items()}
