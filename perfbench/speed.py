"""Machine-speed calibration: times measured at a fixed reference speed.

The benchmark runs on shared machines whose speed swings by up to a
factor of two within seconds (neighbours on the host, not steal: CPU
time equals wall time). Whole passes timed on the wall clock spread by
15–35% between runs of the same code, more than any useful bound. So
while a pass runs, a ``SpeedProbe`` times a fixed pure-Python loop, the
calibration kernel, every ``INTERVAL_S`` seconds from a SIGALRM handler.
Each stretch of program time between two samples is divided by the mean
of the kernel's times at its two ends and multiplied by ``REF_KERNEL_S``:
the result is the time the program would have taken on a machine on
which the kernel takes exactly ``REF_KERNEL_S``. The kernel's own time is
left out.

The kernel and ``REF_KERNEL_S`` are part of the benchmark's definition:
changing either changes every scaled time. The engine's code never runs
in the kernel, so a faster engine shows in full; a faster interpreter
speeds both and shows as no change.
"""

from __future__ import annotations

import signal
import time

KERNEL_ITERS = 10_000
REF_KERNEL_S = 0.0025  # the kernel's median time on a 2-core Xeon (KVM)
INTERVAL_S = 0.1


def kernel() -> int:
    """Fixed interpreter work: dict updates and list edits on small ints,
    the kind of work the engine's pure-Python kernels do."""
    table: dict = {}
    word: list = []
    for i in range(KERNEL_ITERS):
        k = (i * 7919) & 1023
        table[k] = table.get(k, 0) + 1
        word.append(k)
        if len(word) > 16:
            del word[:8]
    return len(table)


class SpeedProbe:
    """Samples the kernel's time on entry, on exit and every
    ``interval`` seconds in between. One probe times one region; the
    process must have no other use for SIGALRM."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []  # (start, end) of each kernel run

    def _sample(self, *_):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        kernel()  # warm the interpreter's specialized bytecode
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        return False

    def scaled(self, start: float = float("-inf"),
               end: float = float("inf")) -> float:
        """Program time within [start, end], scaled to the reference
        speed. Kernel runs are not program time."""
        total = 0.0
        for (a0, a1), (b0, b1) in zip(self.samples, self.samples[1:]):
            overlap = min(b0, end) - max(a1, start)
            if overlap > 0:
                kernel_s = ((a1 - a0) + (b1 - b0)) / 2
                total += overlap * REF_KERNEL_S / kernel_s
        return total

    def kernel_median_s(self) -> float:
        times = sorted(b - a for a, b in self.samples)
        return times[len(times) // 2]
