"""The machine's speed, measured alongside the ops.

On a shared host the same pure-Python code runs 15-20% faster or slower
from one minute to the next, and by as much from one second to the next;
that drift swamps the run-to-run differences the benchmark is meant to
show.  While a `Speedometer` runs, a timer signal every TICK_S seconds
interrupts whatever the main thread does, ops included, and runs a fixed
reference loop for a tenth of the tick.  The speed factor of a stretch of
time is `NOMINAL_CHUNK_S / measured seconds per chunk` over the chunks run
in it.  An op's latency, less the time the loop took inside it, multiplied
by the factor over that op, reads as seconds on a machine that runs the
loop at its nominal speed.

The loop is integer arithmetic only: it calls no library code and leaves
nothing the garbage collector tracks, so the state the
library leaves behind does not change its speed, and it never starts a
collection.
"""

from __future__ import annotations

import contextlib
import signal
from collections import deque
from time import perf_counter

# Half of a chunk is small-int arithmetic, half arithmetic on 200-bit ints
# like the coordinates `membership` works on: of the loops tried, small
# ints alone and big ints alone, their mix followed the speed of
# `enumerate` and `membership` closest (loops reading a 4 MB table or a
# large dict followed neither).
SMALL_ITERATIONS = 500
BIG_ITERATIONS = 80
BIG_A = 3**126
BIG_M = 2**200 - 75
# Seconds per chunk that read as factor 1; roughly the loop's speed on a
# 2-vCPU Xeon VM with CPython 3.11.  Only ratios between runs matter.
NOMINAL_CHUNK_S = 0.0002
TICK_S = 0.02
SHARE = 0.1
# An op too short to hold this many chunks takes the factor of the latest
# chunks run, so that one chunk's jitter does not set it.
MIN_CHUNKS = 10


def reference_chunk() -> int:
    x = 1
    for i in range(SMALL_ITERATIONS):
        x = (x * 48271 + i) % 2147483647
    y = BIG_M - x
    for i in range(BIG_ITERATIONS):
        y = (y * BIG_A + i) % BIG_M
        x ^= BIG_A * BIG_A // (y | 1) % (y | 1)
    return x


class Speedometer:
    """Reference chunks run so far, the seconds they took, and the times
    of the latest MIN_CHUNKS of them."""

    def __init__(self):
        self.chunks = 0
        self.seconds = 0.0
        self._recent: deque[float] = deque(maxlen=MIN_CHUNKS)
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = last = perf_counter()
        end = start + SHARE * TICK_S
        while last < end:
            reference_chunk()
            now = perf_counter()
            self._recent.append(now - last)
            self.chunks += 1
            last = now
        self.seconds += last - start
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Tick once now and then every TICK_S while inside; restore the
        previous SIGALRM handler after."""
        self._tick(signal.SIGALRM, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[int, float]:
        return self.chunks, self.seconds

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(seconds the loop took since `mark`, speed factor since `mark`,
        or of the latest MIN_CHUNKS chunks if fewer ran)."""
        chunks, seconds = self.chunks - mark[0], self.seconds - mark[1]
        if chunks >= MIN_CHUNKS:
            return seconds, NOMINAL_CHUNK_S * chunks / seconds
        return seconds, NOMINAL_CHUNK_S * len(self._recent) / sum(self._recent)

    def factor(self) -> float:
        """Nominal over measured seconds per chunk, over every chunk run:
        below 1 on a slow stretch."""
        return NOMINAL_CHUNK_S * self.chunks / self.seconds
