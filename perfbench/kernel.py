"""The reference kernel and the reference-second normalization.

Host time on a shared machine drifts with the machine's speed, not
only with the code under test: on a small cloud VM the same replay
can take 1.7x longer from one minute to the next, in CPU time as much
as in wall time.  The benchmark therefore times a fixed pure-Python +
numpy kernel *inside* the processes doing the work, interleaved with
it (:class:`Sampler`), and reports host time in reference seconds
(``ref-s``)::

    ref_s = raw_s * REFERENCE_KERNEL_MS / effective kernel ms

``REFERENCE_KERNEL_MS`` is committed in ``reference.json`` beside this
file, so a reference second is the same amount of work in every run.
The kernel mixes the two kinds of work the simulator does: an
interpreter-bound event loop (heap, dicts, small tuples) and numpy
column passes (sort, unique, cumsum, searchsorted).
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np
from numpy.random import default_rng

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def reference_kernel_ms() -> float:
    """The committed kernel time that defines one reference second."""
    return float(json.loads(REFERENCE_FILE.read_text())["ref_kernel_ms"])


def _event_loop(n_events: int) -> int:
    heap = [(i * 7 % 1009, i) for i in range(64)]
    heapq.heapify(heap)
    per_link: dict[int, int] = {}
    done = 0
    while done < n_events:
        t, i = heapq.heappop(heap)
        link = i % 37
        per_link[link] = per_link.get(link, 0) + (t & 63)
        heapq.heappush(heap, (t + 1 + (i * 31 + t) % 97, i))
        done += 1
    return sum(per_link.values())


def _columns(rng: np.random.Generator, n: int) -> int:
    addrs = rng.integers(0, 1 << 22, size=n)
    order = np.argsort(addrs, kind="stable")
    lines = np.unique(addrs[order] >> 7)
    cost = np.cumsum(np.diff(lines, prepend=0) & 31)
    cut = np.searchsorted(cost, cost[-1] // 2)
    return int(cut) + int(lines.size)


def run_kernel() -> int:
    """One kernel pass (about 10 ms); returns a checksum so no work is
    skipped."""
    rng = default_rng(20230225)
    return _event_loop(6_000) + _columns(rng, 15_000)


def time_kernel(repeats: int) -> list[tuple[float, float]]:
    """``repeats`` back-to-back kernel passes as ``(start, ms)``."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_kernel()
        out.append((t0, (time.perf_counter() - t0) * 1e3))
    return out


def effective_kernel_ms(samples: list[tuple[float, float]], window: int = 5) -> float:
    """The kernel time that describes the machine's speed over a stretch.

    ``samples`` are ``(start, ms)`` pairs from one or more processes.
    In time order, each sample is replaced by the median of the
    ``window`` samples around it (one pass preempted by the scheduler
    says nothing about the machine), and the result is their harmonic
    mean: the machine's mean *speed* (passes per second) over the
    stretch, which is what a workload running through it experienced.
    """
    if not samples:
        raise ValueError("no kernel samples")
    ms = [m for _, m in sorted(samples)]
    half = window // 2
    smooth = [
        statistics.median(ms[max(0, i - half): i + half + 1])
        for i in range(len(ms))
    ]
    return statistics.harmonic_mean(smooth)


def cpu_ns(pid: int) -> int:
    """CPU time all threads of process ``pid`` have used, in ns."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
        except OSError:  # the thread has ended
            pass
    return total


#: A pass during which the watched process used more CPU than this
#: shared the machine with it (see :attr:`Sampler.watch_pid`).
CONTENDED_NS = 1_000_000


class Sampler:
    """Times the kernel every ``interval`` seconds inside this process.

    The machine's speed changes from second to second and differs
    between its CPUs, so the kernel is timed in the process doing the
    work, interleaved with it: a ``SIGALRM`` handler runs one pass
    between two bytecodes of whatever the process is executing.
    ``busy_s`` is the time the passes took, which the caller subtracts
    from its clock.
    """

    def __init__(self, interval: float = 0.25, on_pass=None) -> None:
        self.interval = interval
        #: ``on_pass(start, seconds)`` after each pass (the traced run
        #: records it as a span, so layer self times exclude it).
        self.on_pass = on_pass
        #: A process of the program under test whose work must not
        #: slow the kernel down (a pool worker watches the supervisor):
        #: passes during which it ran go to ``contended``, not
        #: ``samples``, or the normalization would cancel the slowdown
        #: the program causes itself.
        self.watch_pid: int | None = None
        self.samples: list[tuple[float, float]] = []
        self.contended: list[tuple[float, float]] = []
        self.busy_s = 0.0

    def _tick(self, signum, frame) -> None:
        watched = cpu_ns(self.watch_pid) if self.watch_pid else 0
        t0 = time.perf_counter()
        run_kernel()
        dt = time.perf_counter() - t0
        quiet = not self.watch_pid or cpu_ns(self.watch_pid) - watched < CONTENDED_NS
        (self.samples if quiet else self.contended).append((t0, dt * 1e3))
        self.busy_s += dt
        if self.on_pass is not None:
            self.on_pass(t0, dt)

    def start(self) -> None:
        # The handler may interrupt an import, so everything it touches
        # must be loaded already: one pass first resolves it all.
        run_kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def restart_in_child(self, watch_pid: int) -> None:
        """Interval timers do not survive ``fork``: start afresh in the
        child, watching ``watch_pid``."""
        self.watch_pid = watch_pid
        self.samples, self.contended = [], []
        self.busy_s = 0.0
        self.start()


def to_ref_seconds(raw_s: float, kernel_ms: float, ref_kernel_ms: float) -> float:
    """Raw seconds measured while the kernel took ``kernel_ms``, in ref-s."""
    if kernel_ms <= 0:
        raise ValueError(f"kernel time must be positive, got {kernel_ms}")
    return raw_s * ref_kernel_ms / kernel_ms
