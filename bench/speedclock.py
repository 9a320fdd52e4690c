"""Timing normalised to a reference speed, for hosts whose speed drifts.

On a shared host the same computation can take twice as long from one
second to the next (a busy neighbour or a lower clock), which swamps any
change a benchmark should detect.  A SpeedClock therefore runs a small fixed
reference kernel, which calls no cwf code, every PERIOD_S seconds from a
SIGALRM handler in the measured thread, and scales each interval of
measured time by (the kernel's nominal duration) / (its duration at the end
of that interval).  The result is the time the work would have taken at the
reference speed; the raw elapsed time is kept beside it.  Time spent in the
handler is excluded from both.

The kernel shares the core with the measured work, so load the work itself
puts on other cores (worker processes) is read as a slower machine: compare
the raw times too when a change adds parallelism.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

#: sampling period of the speed probe, seconds
PERIOD_S = 0.005

_ARRAYS: dict = {}


def _arrays() -> dict:
    # built on first use, so the interpreter-only kernel needs no numpy import
    if not _ARRAYS:
        import numpy as np

        nodes, weights = np.polynomial.legendre.leggauss(64)
        _ARRAYS.update(np=np, rng=np.random.Generator(np.random.Philox(0)),
                       arr=np.linspace(0.1, 1.0, 64), nodes=nodes, weights=weights)
    return _ARRAYS


def _python_kernel() -> float:
    """Interpreter work only: calls, dict updates and string formatting."""
    counts: dict = {}
    for i in range(600):
        key = f"k{i & 63}"
        counts[key] = counts.get(key, 0) + i * i % 7
    return float(sum(counts.values()))


def _walk_kernel() -> float:
    """Philox normals, a prefix sum and small-array arithmetic."""
    a = _arrays()
    s = 0.0
    for i in range(30):
        s += math.log1p(i) + float((a["arr"] * i).sum())
    return s + float(a["np"].cumsum(a["rng"].standard_normal(4096))[-1])


def _quadrature_kernel() -> float:
    """64-node Gauss rules on a log-type integrand, one Python call each."""
    a = _arrays()
    np = a["np"]
    s = 0.0
    for i in range(24):
        g = 1.0 + 0.1 * i + 0.5 * a["nodes"]
        s += float(a["weights"] @ (np.log1p(g / 0.7) * np.exp(-g)))
    return s


#: reference kernels and their nominal durations in seconds (close to their
#: medians on a 2-core Xeon); normalised times are seconds at that speed.
#: Each measurement uses the kernel whose work slows down most like its own.
KERNELS = {"python": (_python_kernel, 2.5e-4), "walk": (_walk_kernel, 3.0e-4),
           "quadrature": (_quadrature_kernel, 2.5e-4)}


def kernel_seconds(kernel: str = "walk", repeats: int = 5) -> float:
    """Median duration of a reference kernel right now."""
    fn = KERNELS[kernel][0]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedClock:
    """Context manager accumulating raw and reference-speed elapsed time."""

    def __init__(self, kernel: str = "walk", period: float = PERIOD_S):
        self.kernel = kernel
        self.period = period

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        duration = kernel_seconds(self.kernel, 1)
        self._accumulate(start, duration)
        self._mark = time.perf_counter()

    def _accumulate(self, now: float, duration: float):
        interval = now - self._mark
        self._raw += interval
        self._scaled += interval * KERNELS[self.kernel][1] / duration
        self._duration = duration

    def __enter__(self):
        self._raw = self._scaled = 0.0
        self._mark = time.perf_counter()
        self._tick()
        self._raw = self._scaled = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def lap(self) -> tuple[float, float]:
        """(raw, reference-speed) seconds elapsed since the previous lap."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._accumulate(time.perf_counter(), self._duration)
            self._mark = time.perf_counter()
            raw, scaled = self._raw, self._scaled
            self._raw = self._scaled = 0.0
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return raw, scaled
