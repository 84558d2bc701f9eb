"""How fast the interpreter runs right now, sampled while a command runs.

On a shared virtual machine the same code runs up to 1.6 times slower for
spans of half a second to several seconds, and the share of slow spans
drifts over minutes. The load average stays low and no time is stolen: the
core just runs slower. Timing one eval_mix round again and again spread its
total, median and p90 command time by 7-32% (IQR / median) for that reason
alone.

So each timed command carries a probe: a fixed pure-Python loop, run
``EDGE_PROBES`` times before the command, as often after it, and every
``INTERVAL_S`` while it runs (from a SIGALRM handler, between bytecodes).
The probes' own time is taken out of the command's time. That time is then
scaled to the reference speed: multiplied by ``REFERENCE_S`` / the mean
probe time. On six timings of the same 70 eval_mix commands this cut the
spread of their total time from 14% to 1.4%, of their median from 7% to
2.1%, and the median coefficient of variation of one command from 19% to
5.6%.

``REFERENCE_S`` is a fixed constant, about the probe's time on an
uncontended core of a 2-vCPU x86-64 cloud VM under CPython 3.11, so the
scaled times read as seconds on such a core. It never changes between runs
or commits: a faster program gives smaller scaled times by the same factor
as raw ones. The raw times are kept in the full record.
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_S = 0.0002
INTERVAL_S = 0.005
EDGE_PROBES = 3  # a few, so that one disturbed probe weighs little


def probe() -> float:
    """Seconds taken by a fixed loop that builds and drops small dicts.

    Dict and tuple churn is what the program's own hot loops do, and it
    slows down on a contended core by about as much as they do; a loop of
    plain integer arithmetic slows down less. The garbage collector is off
    while the probe runs, and the probe frees all it builds, so it never
    triggers a collection of the program's objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for i in range(150):
        d = {}
        for j in range(8):
            d[i, j] = i * j
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class Meter:
    """Times one command and samples the probe around it and during it.

    Use it as a context manager around the command. Afterwards ``raw_s`` is
    the command's wall time without the probes, ``samples`` are the probe
    times, ``ticks`` the (start, end) of each probe run during the command,
    and ``scaled_s`` is ``raw_s`` at the reference speed.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.ticks: list[tuple[float, float]] = []
        self.raw_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.ticks.append((start, time.perf_counter()))

    def __enter__(self) -> "Meter":
        self.samples = [probe() for _ in range(EDGE_PROBES)]
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        # a tick still pending at `end` runs after it: not command time
        self.ticks = [(a, b) for a, b in self.ticks if a < end]
        self.raw_s = end - self._start - sum(b - a for a, b in self.ticks)
        self.samples += [probe() for _ in range(EDGE_PROBES)]

    @property
    def speed(self) -> float:
        """Mean probe seconds over the command; REFERENCE_S is full speed."""
        return sum(self.samples) / len(self.samples)

    @property
    def scaled_s(self) -> float:
        return self.raw_s * REFERENCE_S / self.speed
