"""A sampled reference of machine speed, for normalizing measured times.

On a shared host the same pure-Python work can take 1.5 times longer from
one second to the next, and for minutes at a stretch; such swings are wider
than any bound a regression check could use.  A :class:`SpeedSampler`
interrupts the measured process every ``INTERVAL_S`` and times a fixed
reference snippet (Fraction and dict arithmetic, the kernel's mix, no
``lepage`` code) with the cyclic garbage collector off, so that a
collection of the measured program's heap is not charged to the snippet.
The mean snippet time over a pass, divided by the nominal
``REFERENCE_S``, is that pass's slowdown; dividing a measured time (minus
the time the samples themselves took) by it gives the time at the nominal
speed.  An item's slowdown is the mean over the samples taken while it ran
or within ``WINDOW_PAD_S`` of it, so that short items follow the speed of
their moment rather than the pass's average.
"""
from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
# nominal duration of one reference snippet; on an idle 2-CPU Xeon host it
# takes 1.3-2 ms
REFERENCE_S = 0.002
# how far around an item its slowdown's samples may be taken
WINDOW_PAD_S = 0.25

_ZERO = Fraction(0)


def reference() -> dict:
    """A fixed amount of pure-Python work."""
    acc: dict = {}
    for i in range(400):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, _ZERO) + Fraction(i % 7, 1 + i % 3)
    return acc


def timed_reference() -> float:
    """Seconds one ``reference()`` takes, with the cyclic collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """Times ``reference()`` on a wall-clock interval timer while running."""

    def __init__(self):
        self.durations: list[float] = []
        self.taken_at: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        self.taken_at.append(time.perf_counter())
        took = timed_reference()
        self.durations.append(took)
        self.spent += took

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def report(self) -> dict:
        return {"spent": self.spent, "refs": self.durations, "ref_at": self.taken_at}


def slowdown(durations: list[float]) -> float:
    """How many times slower than nominal the machine ran while these were taken."""
    return sum(durations) / len(durations) / REFERENCE_S if durations else 1.0


def item_slowdown(refs: list[float], ref_at: list[float], start: float, end: float,
                  pass_slowdown: float) -> float:
    """Slowdown around one item, from ``start`` to ``end``; the pass's if no sample is near."""
    near = [d for d, at in zip(refs, ref_at) if start - WINDOW_PAD_S <= at <= end + WINDOW_PAD_S]
    return slowdown(near) if near else pass_slowdown
