"""The machine's current speed, sampled while an operation runs.

On a shared machine the same operation can take twice as long from one
stretch of seconds to the next, and process CPU time stretches with it, so
raw medians from runs minutes apart spread by 15-30% of their value. A
fixed probe of interpreter work and small numpy calls slows in step with
specgame's own work. Timing that probe at both ends of a 10 s operation
tracks the operation poorly, since the machine's state changes within it.
So a `Sampler` runs the probe every INTERVAL_S from a SIGALRM handler while
the operation runs. The benchmark subtracts the probes' own time and scales
what is left to a machine on which one probe takes REFERENCE_S of CPU
time. A change to specgame moves a scaled time as much as a raw one; what
cancels out is the machine's speed.

The probe imports nothing from specgame. Changing it, REFERENCE_S or
INTERVAL_S changes every scaled figure, and is a change to the benchmark.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# A round figure near the probe's CPU time on the reference machine (2-core
# sandbox, Python 3.11.7, numpy 2.4.6) when it is not slowed down.
REFERENCE_S = 0.002
INTERVAL_S = 0.2
_ROUNDS = 200


def probe() -> float:
    """CPU seconds of this thread for the fixed work."""
    rng = np.random.default_rng(0)
    p = np.full((8, 5), 0.2)
    acc = 0.0
    start = time.thread_time()
    for _ in range(_ROUNDS):
        u = rng.random(8)
        w = p * np.exp(0.01 * np.cumsum(p, axis=1))
        p = w / w.sum(axis=1, keepdims=True)
        for k in range(8):
            acc += math.exp(-0.01 * u[k]) * (k + 1)
    elapsed = time.thread_time() - start
    if not math.isfinite(acc):
        raise ArithmeticError("calibration probe went non-finite")
    return elapsed


class Sampler:
    """Probes the machine once on entry and then every INTERVAL_S until exit.

    Only the main thread may use it, since only the main thread runs signal
    handlers. `spent_wall` and `spent_cpu` are the time the probes took,
    for the caller to subtract from its own measurement.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        cpu = probe()
        self.samples.append(cpu)
        self.spent_cpu += cpu
        self.spent_wall += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from seconds measured inside the block to reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
