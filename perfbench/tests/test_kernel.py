"""Reference-second normalization."""

import subprocess
import sys
import time

import pytest

from kernel import (
    Sampler,
    effective_kernel_ms,
    reference_kernel_ms,
    run_kernel,
    time_kernel,
    to_ref_seconds,
)


def test_to_ref_seconds_scales_by_kernel_ratio():
    # A machine running the kernel at the reference speed: unchanged.
    assert to_ref_seconds(3.0, 10.0, 10.0) == 3.0
    # Twice as slow: the same raw seconds are half the work.
    assert to_ref_seconds(3.0, 20.0, 10.0) == 1.5
    assert to_ref_seconds(3.0, 5.0, 10.0) == 6.0
    with pytest.raises(ValueError):
        to_ref_seconds(1.0, 0.0, 10.0)


def test_effective_kernel_is_harmonic_mean_of_smoothed_samples():
    # Constant speed: the effective time is that time.
    assert effective_kernel_ms([(t, 10.0) for t in range(7)]) == pytest.approx(10.0)
    # Half the stretch at 10 ms, half at 20 ms: the mean speed is
    # (1/10 + 1/20) / 2 passes per ms, so the effective time is 40/3.
    samples = [(t, 10.0) for t in range(20)] + [(t, 20.0) for t in range(20, 40)]
    assert effective_kernel_ms(samples, window=1) == pytest.approx(40 / 3)


def test_effective_kernel_ignores_single_preempted_pass():
    samples = [(t, 10.0) for t in range(9)]
    samples[4] = (4, 500.0)  # one pass descheduled mid-way
    assert effective_kernel_ms(samples) == pytest.approx(10.0)
    assert effective_kernel_ms(samples, window=1) > 11


def test_effective_kernel_orders_samples_by_time():
    # Samples pooled from two processes arrive unordered.
    a = [(0.0, 10.0), (2.0, 10.0), (4.0, 30.0), (6.0, 30.0)]
    b = [(1.0, 10.0), (3.0, 10.0), (5.0, 30.0), (7.0, 30.0)]
    assert effective_kernel_ms(a + b, window=3) == effective_kernel_ms(
        sorted(b + a), window=3
    )
    with pytest.raises(ValueError):
        effective_kernel_ms([])


def test_kernel_is_deterministic_and_timed():
    assert run_kernel() == run_kernel()
    passes = time_kernel(2)
    assert len(passes) == 2 and all(ms > 0 for _, ms in passes)
    assert reference_kernel_ms() > 0


def test_passes_while_the_watched_process_runs_are_set_aside():
    idle = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.3)  # both past start-up
        sampler = Sampler()
        sampler.watch_pid = idle.pid
        sampler._tick(None, None)
        assert len(sampler.samples) == 1 and not sampler.contended
        sampler.watch_pid = busy.pid
        sampler._tick(None, None)
        assert len(sampler.samples) == 1 and len(sampler.contended) == 1
        assert sampler.busy_s > 0
    finally:
        for p in (idle, busy):
            p.kill()
            p.wait()
