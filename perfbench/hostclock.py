"""Pass time at a fixed reference host speed, from an interleaved calibration kernel.

The shared hosts this benchmark runs on change speed in phases: the same
code runs up to 2.5 times as slow for stretches of one to several seconds,
on every CPU at once, and the share of slow time differs from run to run.
Raw wall time therefore spreads by 14-42 % between runs of the same code,
which hides the changes the benchmark is meant to show.

`HostClock` measures the host's speed while the timed code runs. Every
`PERIOD_S` of real time a SIGALRM handler runs one chunk of `kernel`, a
fixed mix of pure-Python complex arithmetic and 3x3 numpy eigensolves like
the qsr hot path, and records how long it took. The time outside the chunks
is split at the chunks into slices. Each slice is scaled by
`REFERENCE_CHUNK_S` over the median duration of the chunks around it, so a
slice run at half speed counts half. The sum is the time the code would
have taken on the reference host, in seconds. The chunks themselves are not
counted. They add about 5 % to a pass's real time.

The handler runs in the main thread between bytecodes, so a long C call
delays it; the interval still counts, scaled by the chunks nearest to it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: Real time between calibration chunks.
PERIOD_S = 0.1
#: Iterations of `kernel` per chunk.
CHUNK_ITERATIONS = 300
#: Duration of one chunk in the fast phases of the reference host, a 2-vCPU
#: VM with Python 3.11.7 and numpy 2.4.6 (OpenBLAS). It only fixes the unit.
REFERENCE_CHUNK_S = 3.6e-3
#: Chunks on either side of a slice whose median duration scales it.
WINDOW = 3
#: Chunks run right after the timed window, so that short windows are scaled too.
TAIL_CHUNKS = 5

_MATRIX = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])


def kernel(iterations: int = CHUNK_ITERATIONS) -> float:
    """Fixed calibration work; the result only keeps the work from being skipped."""
    acc = 0.0
    for i in range(iterations):
        z = complex(0.5 + 1e-3 * i, 0.25)
        for _ in range(8):
            z = z * z.conjugate() * 0.5 + complex(0.1, math.sqrt(abs(z) + 1.0) * 0.01)
        w = np.linalg.eigvalsh(_MATRIX + (i % 7) * 1e-3)
        acc += z.real + float(np.sum(w * np.log(w)))
    return acc


def chunk_s() -> float:
    """Run one chunk of `kernel` and return its duration."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostClock:
    """Context manager timing its body in raw and in reference seconds.

    After exit, `raw_s` and `raw_cpu_s` are the body's wall and process CPU
    time without the chunks, `reference_s` is its wall time at reference
    host speed and `slowdown` is the median chunk duration over
    `REFERENCE_CHUNK_S`.
    """

    def __init__(self):
        self._chunks = []  # (wall start, wall end, cpu seconds) in the window
        self._armed = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._armed:
            return
        start, cpu = time.perf_counter(), time.process_time()
        kernel()
        self._chunks.append((start, time.perf_counter(), time.process_time() - cpu))

    def __enter__(self):
        self._chunks = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        self._start, self._cpu_start = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._armed = False
        self._end, self._cpu_end = time.perf_counter(), time.process_time()
        try:
            # Running Python code here also lets a signal that is still
            # pending reach the disarmed handler, not the previous one.
            self._tail = [chunk_s() for _ in range(TAIL_CHUNKS)]
        finally:
            signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def raw_s(self) -> float:
        return self._end - self._start - sum(end - start for start, end, _ in self._chunks)

    @property
    def raw_cpu_s(self) -> float:
        return self._cpu_end - self._cpu_start - sum(cpu for _, _, cpu in self._chunks)

    @property
    def reference_s(self) -> float:
        return scaled_time(self._start, self._end, self._chunks, self._tail)

    @property
    def slowdown(self) -> float:
        durations = [end - start for start, end, _ in self._chunks] + self._tail
        return statistics.median(durations) / REFERENCE_CHUNK_S


def scaled_time(start: float, end: float, chunks, tail) -> float:
    """Time of [start, end] outside `chunks`, each slice scaled to reference speed.

    `chunks` are the (start, end, ...) intervals inside the window, in
    order; `tail` holds durations of chunks run right after it. The slice
    before chunk i is scaled by the median duration of chunks i - WINDOW to
    i + WINDOW - 1, counting the tail as chunks after the last one.
    """
    durations = [c[1] - c[0] for c in chunks] + list(tail)
    edges = [start] + [t for c in chunks for t in (c[0], c[1])] + [end]
    total = 0.0
    for i in range(len(chunks) + 1):
        near = durations[max(0, i - WINDOW):i + WINDOW]
        total += (edges[2 * i + 1] - edges[2 * i]) * REFERENCE_CHUNK_S / statistics.median(near)
    return total
