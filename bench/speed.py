"""The speed of the host at the moments the benchmark does its work.

On a shared host the speed of this process swings by up to 1.7x over
seconds and minutes, as other tenants load the same cores.  It moves every
time the benchmark takes by the same factor, and it moves it more between
runs than any change to singfol worth measuring.  So after every operation
the benchmark runs ``tick``, a fixed pure-Python loop of about 0.2 ms.  An
operation's slowdown is the mean of the ticks just before and just after
it, over NOMINAL_TICK_S, and dividing its time by that slowdown scales it to
the host's nominal speed.  A pass's slowdown is that of its operations,
weighted by their durations.  The ticks take about 1 % of a pass and are not
counted in any time; the raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import time

# a tick on the reference host (Intel Xeon, Python 3.11) when nothing else
# loads its core; it only scales the reported times
NOMINAL_TICK_S = 1.5e-4
TICK_LOOP = 2000


def tick() -> float:
    """Run the fixed loop once; return its duration in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(TICK_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


class Speedometer:
    """Slowdown of the operations timed since creation."""

    def __init__(self):
        self.last_tick = tick()
        self.busy = 0.0     # raw seconds inside operations
        self.scaled = 0.0   # the same, each operation divided by its own slowdown
        self.ticking = 0.0  # seconds spent in ticks

    def after(self, duration: float) -> float:
        """Record an operation of ``duration`` seconds that just ended and
        return its slowdown: the mean of the ticks around it over nominal."""
        t = tick()
        slowdown = (self.last_tick + t) / 2 / NOMINAL_TICK_S
        self.ticking += t
        self.busy += duration
        self.scaled += duration / slowdown
        self.last_tick = t
        return slowdown

    def slowdown(self) -> float:
        """Mean slowdown of the recorded operations, weighted by duration."""
        return self.busy / self.scaled if self.scaled else self.last_tick / NOMINAL_TICK_S
