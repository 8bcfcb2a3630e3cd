"""Measure how fast the host runs while a process works, to rescale its times.

The shared machines this benchmark runs on switch between speed regimes up to
about 2x apart, from second to second and for minutes at a time (README.md,
"Noise"). Process CPU time moves with them, so it is no steadier than wall
time. A Sampler therefore interrupts its process every INTERVAL_S with
SIGALRM and times a fixed pure-Python loop in the handler: on the same CPU
as the program and at the same moment. `Sampler.nominal(t0, t1)` rescales
the interval [t0, t1] to the host speed at which the loop takes NOMINAL_S:
each stretch between two samples counts in proportion to NOMINAL_S / (the
loop's time at the sample that ends it). The loop's own time is left out.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.010
# The loop's time on the reference machine (2 shared cores of an Intel Xeon,
# Python 3.11.7) in its faster regime.
NOMINAL_S = 0.00025
LOOP_ITERATIONS = 500


def loop() -> int:
    # Interpreter work of the kinds confplan spends its time on: integer
    # arithmetic, tuple building, dict access and method calls.
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(LOOP_ITERATIONS):
        key = (i & 63, i % 7)
        total += table.get(key, 0) + (i * i) % 11
        table[key] = total & 1023
    return total


class Sampler:
    """Times `loop` every INTERVAL_S of wall time while started.

    `ends` and `loops` hold, per sample, the time.monotonic() at which the
    loop ended and how long it took.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.loops: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        began = time.monotonic()
        loop()
        end = time.monotonic()
        self.ends.append(end)
        self.loops.append(end - began)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] of time.monotonic(), less the samples
        taken inside it, would have lasted at the nominal host speed. A
        stretch before the first sample counts at the first sample's speed,
        one after the last at the last's."""
        total = 0.0
        prev = t0
        for end, loop_s in zip(self.ends, self.loops):
            if end <= t0:
                continue
            stop = min(end, t1)
            busy = stop - prev - (loop_s if end <= t1 else 0.0)
            total += max(busy, 0.0) * NOMINAL_S / loop_s
            prev = stop
            if prev >= t1:
                return total
        return total + (t1 - prev) * NOMINAL_S / self.loops[-1]
