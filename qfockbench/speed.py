"""Machine-speed sampling, so timings can be scaled to a reference speed.

On a shared virtual machine the same code runs at different speeds from one
minute to the next (other tenants contend for the host's cores and caches),
and the vCPUs drift independently.  A fixed pure-Python kernel, whose work
resembles the verifier's (small dict polynomials over Python ints, gcds,
sorted tuples), is timed in the measured process itself: EDGE_SAMPLES
times on entry and on exit, and every INTERVAL_S of wall time in between
from a SIGALRM handler.  A timing is scaled by the mean of
KERNEL_REF_S / (kernel time) over its samples, which turns it into seconds
at the speed where the kernel takes KERNEL_REF_S.  The handler's own time
is taken out of the timing before scaling.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05
# Samples taken on entry and on exit; they alone time a short block.
EDGE_SAMPLES = 5
# Kernel time at the reference speed; any fixed value serves for comparisons.
KERNEL_REF_S = 0.001


def kernel() -> int:
    acc = 0
    for it in range(48):
        a = {e: (e * 7919 + it) * 1000003 % 1000033 + 1 for e in range(8)}
        out: dict[int, int] = {}
        for ea, ca in a.items():
            for eb, cb in a.items():
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        g = 0
        for c in out.values():
            g = math.gcd(g, c)
        acc += len(tuple(sorted(out.items()))) + g
    return acc


class SpeedSampler:
    """Context manager: samples the kernel while the body runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.overhead_s += t1 - t0

    def __enter__(self):
        for _ in range(3):   # the first runs warm the kernel's code
            kernel()
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self.overhead_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        overhead = self.overhead_s
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self.overhead_s = overhead
        return False

    def scale(self, wall_s: float) -> float:
        """A wall time measured inside the block, without the sampling time,
        in seconds at the reference speed."""
        factor = sum(KERNEL_REF_S / s for s in self.samples) / len(self.samples)
        return (wall_s - self.overhead_s) * factor
