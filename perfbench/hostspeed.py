"""Host-speed probe: turns wall seconds into seconds at a fixed reference speed.

On a shared 2-vCPU Intel Xeon virtual machine, the same pure-Python work
runs at two speeds, one about 1.8x slower than the other, and the machine
switches between them for spans of a fraction of a second to minutes as
other tenants load the cores.  CPU time tracks wall time, so the loss is
the core's speed, not scheduling.  Repeating the work inside one run cannot
average out a slow phase that lasts the whole run: passes of the ``linear``
workload read from 1.05 s to 2.0 s of wall time.

A :class:`HostSpeed` thread therefore runs a fixed kernel, independent of
detkit, every ``PERIOD_S`` and records how long it took.  A timed interval
is scaled by ``KERNEL_REF_S`` over the mean kernel time around it.  The
kernel costs about 3-5% of the main thread's time, the same on every commit.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD_S = 0.05
# the kernel's time on an uncontended core of that machine
KERNEL_REF_S = 1.5e-3
# short intervals take the probe samples of a window this wide around them
WINDOW_S = 1.0
MIN_SAMPLES = 5

_TABLE = {i: i * 2654435761 % 1009 for i in range(1024)}


def _kernel() -> int:
    # dict probes, integer arithmetic and branches; allocates no container,
    # so it never triggers the cyclic garbage collector
    table, acc = _TABLE, 0
    for i in range(8000):
        acc = (acc + table.get(i & 1023, 0) * 7 + (i ^ (i >> 3))) % 1000003
    return acc


class HostSpeed:
    """Background probe; use as a context manager around the timed work and
    call :meth:`scale` after it exits.  Work in a child process is timed
    with :meth:`sample` calls around it instead, because a probe thread
    would compete with the child for the core."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)

    def sample(self):
        """Time the kernel once on the calling thread.  Called directly only
        while the background thread is not running."""
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        # samples after the last interval, so its window is full
        self._stop.wait(WINDOW_S / 2)
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """Reference-speed seconds per wall second over ``[t0, t1]``."""
        if len(self.times) < MIN_SAMPLES:
            raise RuntimeError("the host-speed probe took too few samples")
        pad = max(0.0, (WINDOW_S - (t1 - t0)) / 2)
        while True:
            i = bisect_left(self.times, t0 - pad)
            j = bisect_right(self.times, t1 + pad)
            if j - i >= MIN_SAMPLES:
                return KERNEL_REF_S * (j - i) / sum(self.durations[i:j])
            pad = 2 * pad + PERIOD_S

    def kernel_median_s(self) -> float:
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2] if ordered else float("nan")
