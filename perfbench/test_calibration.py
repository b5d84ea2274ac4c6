"""The in-operation speed sampler."""

import signal
import time

import calibration


def test_sampler_probes_during_the_block_and_cleans_up():
    previous = signal.getsignal(signal.SIGALRM)
    with calibration.Sampler() as sampler:
        end = time.perf_counter() + 3 * calibration.INTERVAL_S + 0.05
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert 0.0 < sampler.spent_cpu <= sampler.spent_wall + 1e-3
    assert sampler.scale() > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == previous


def test_probe_does_fixed_work():
    assert 0.0 < calibration.probe() < 1.0
