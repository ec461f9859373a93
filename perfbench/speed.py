"""Machine-speed probe, so that timings can be put at one reference speed.

The machines this benchmark runs on are shared.  A fixed pure-Python
loop there takes anywhere from 1x to 2x its best time, in spells that last
from one to tens of seconds, and process CPU time swings with wall time
(the work runs slower, it is not descheduled).  The two CPUs swing
separately.  No run length averages that out.  So while a worker times
its items, SIGALRM runs a short fixed kernel every ``INTERVAL_S`` in the
same process, on the CPU the work runs on, and each item's time is
scaled by ``REFERENCE_S`` over the median kernel time around it:

    normalized = net seconds * REFERENCE_S / median(kernel seconds)

``net`` excludes the CPU time the probe itself took.  A program change
moves the item time and not the kernel, so it still shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
KERNEL_ITERATIONS = 20_000
REFERENCE_S = 0.0035  # the kernel's typical time on a 2-core Python 3.11 machine
WINDOW_S = 0.3  # samples this close to an item count toward its speed


def kernel() -> float:
    """CPU seconds for a fixed mix of integer arithmetic and dict stores.

    CPU time, not wall time: a CLI child shares the CPU with this process,
    and the kernel must measure the CPU's speed, not its share of it.
    """
    start = time.process_time()
    acc, table = 0, {}
    for i in range(KERNEL_ITERATIONS):
        table[i & 1023] = acc
        acc += i * i % 7
    return time.process_time() - start


class SpeedProbe:
    """Kernel samples taken on a timer while items are timed."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0

    def _tick(self, *_) -> None:
        k = kernel()
        self.ends.append(time.perf_counter())
        self.kernel_s.append(k)
        self.spent += k

    def start(self) -> None:
        for _ in range(3):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.kernel_s[lo:hi] or self.kernel_s)

    def time(self, fn):
        """Run fn(); return (result, net seconds, start, end).

        Net seconds exclude the probe's own time.  That holds for a child
        process too when it shares this process's one CPU.
        """
        spent = self.spent
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        return out, end - start - (self.spent - spent), start, end
