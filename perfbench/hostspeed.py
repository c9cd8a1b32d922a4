"""Host-speed sampling, so run times can be put at one reference speed.

On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, and the slowdown shows in the process's CPU time too,
so neither wall nor CPU time alone repeats.  A :class:`SpeedProbe` times a
fixed kernel of small numpy operations (the shape of the package's hot
path, but none of its code) every ``interval`` seconds from a timer signal
while the program runs.  A run's time divided by the mean kernel time
over the run, times the kernel's time on a quiet host, is the run's time
at that quiet-host speed.

Python runs a signal handler between bytecodes of the main thread, so a
tick never interrupts the package inside a numpy call; a call that holds
the interpreter longer than ``interval`` only delays the next tick.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the kernel's time on a quiet 2-vCPU x86-64 host; it sets the scale of
# every normalized time, so it must never change once a baseline exists
QUIET_TICK_S = 0.00045

_X0 = np.ones((1, 3))


def kernel() -> float:
    """Seconds for 60 explicit-Euler steps of a Lorenz-63 drift."""
    tic = time.perf_counter()
    x = _X0
    for _ in range(60):
        y = np.empty_like(x)
        y[..., 0] = 10.0 * (x[..., 1] - x[..., 0])
        y[..., 1] = 28.0 * x[..., 0] - x[..., 1] - x[..., 0] * x[..., 2]
        y[..., 2] = x[..., 0] * x[..., 1] - 2.6 * x[..., 2]
        x = x + 1e-9 * y
    return time.perf_counter() - tic


class SpeedProbe:
    """Context manager that ticks the kernel from SIGALRM while active.

    ``ticks`` holds (start, seconds) of every kernel run, in time order.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.ticks: list[tuple[float, float]] = []
        self._previous = None

    def tick(self, *_signal) -> None:
        start = time.perf_counter()
        self.ticks.append((start, kernel()))

    def __enter__(self):
        kernel()  # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        """Tick once by hand and return where the ticks after it start."""
        self.tick()
        return len(self.ticks)

    def since(self, mark: int) -> tuple[float, float]:
        """(slowdown, seconds spent ticking) since ``mark``.

        Ticks once more by hand, so the hand ticks on both sides of the
        timed code count in the mean even when no timer tick fell inside;
        only the timer ticks in between count as time spent.  Slowdown is
        the mean tick over QUIET_TICK_S: 1 on a quiet host, 2 at half speed.
        """
        inside = self.ticks[mark:]
        self.tick()
        ticks = self.ticks[mark - 1:]
        mean = statistics.fmean(d for _, d in ticks)
        return mean / QUIET_TICK_S, sum(d for _, d in inside)
