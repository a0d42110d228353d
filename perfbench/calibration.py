"""Host speed calibration for the timed operations.

On a shared host the speed of interpreter-bound code drifts by tens of
percent within and between runs (co-tenant load), and ritzspline's
per-point Python kernels slow down in proportion.  The benchmark therefore
times a fixed kernel of the same kind (numpy scalar indexing and float
arithmetic, as in the B-spline basis recurrences) right before and after
every operation and, on a timer signal, while the operation runs.  An
operation's speed factor is the median kernel time over the nominal kernel
time; dividing its duration by that factor gives seconds at this machine's
typical speed.  The time spent in the sampling handler is subtracted from
the operation's duration.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

KERNEL_STEPS = 1000
# Typical kernel time on the machine the benchmark was defined on (2-core
# x86_64 VM, Python 3.11, numpy 2.4); a fixed constant, so figures stay
# comparable between commits.
NOMINAL_S = 0.0006
INTERVAL_S = 0.025  # sampling period while an operation runs
EDGE_SAMPLES = 3  # samples right before and right after each operation


def kernel_time() -> float:
    """Seconds taken by the fixed calibration kernel."""
    import numpy as np

    table = np.zeros((8, 8))
    acc = 0.0
    start = perf_counter()
    for i in range(KERNEL_STEPS):
        j = i & 7
        table[j, 7 - j] = acc * 0.5 + j
        acc += table[7 - j, j] * 1e-3
    return perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    return statistics.median(samples) / NOMINAL_S


class SpeedSampler:
    """Context manager timing one call together with the host speed during it.

    After the block, ``seconds`` is its duration minus the handler's time and
    ``speed`` its speed factor.  With ``during=False`` it samples only before
    and after the block: traced runs use that, so that no handler time lands
    inside a span.  Sampling during the block owns SIGALRM and the interval
    timer for the life of the process: only the main thread may do it, and
    nothing else may use that timer.  The handler stays installed, idle
    between blocks, so that a signal still pending when a block ends is
    harmless.
    """

    def __init__(self, during: bool = True) -> None:
        self.seconds = 0.0
        self.speed = 1.0
        self._samples: list[float] = []
        self._spent = 0.0
        self._sampling = False
        self._during = during
        if during:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if not self._sampling:
            return
        start = perf_counter()
        self._samples.append(kernel_time())
        self._spent += perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._samples = [kernel_time() for _ in range(EDGE_SAMPLES)]
        self._spent = 0.0
        if self._during:
            self._sampling = True
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self._start
        if self._during:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self._sampling = False
        self.seconds = elapsed - self._spent
        self._samples += [kernel_time() for _ in range(EDGE_SAMPLES)]
        self.speed = speed_factor(self._samples)
        return False
