"""Machine-speed calibration on the CPU the workload runs on.

The benchmark's host shares its cores: the same pure-Python loop runs
up to half again as slow in one stretch of seconds as in the next, and
each CPU slows on its own.  Process CPU time slows just as much (no
time is reported stolen), so neither the wall nor the CPU seconds of
one run compare with those of another.

The benchmark therefore pins itself, and every process it starts, to
one CPU and runs a small sampler process on that same CPU.  Every
``PERIOD_S`` the sampler wakes, runs one fixed unit of interpreter work
(small objects, tuples, dicts and hashing, as the e-graph code does)
and appends how long it took to a file.  The workload's times are
reported in *reference seconds*: measured seconds times ``REF_UNIT_S``
over the typical unit time the sampler saw while they were measured.  A
slow spell of the host lengthens both and cancels out; a change in the
program does not touch the sampler's unit, so it shows in full.  The
sampler runs at real-time priority where allowed, so the workload never
preempts a unit, and takes a constant ~2.5% of the CPU.

The typical unit time is the mean over windows of ``MEAN_MIN_UNITS``
units or more, the median over shorter ones.  Now and then the host
stalls the CPU for milliseconds.  Over a long window the stalls take
the same share of the workload's time as of the units', and the mean
shows it (deep-blas's 16-second pairs varied 1.6% between runs scaled
by the mean, 6.7% by the median).  Over a short one, one stall among a
few dozen units would skew the mean by a fifth (the same served miss
varied 9% scaled by the mean, 8% by the median, 17% unscaled).
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: Sleep between two sampler units.
PERIOD_S = 0.02
#: Typical unit time on the reference machine (2-CPU "Intel(R) Xeon(R)
#: Processor", Python 3.11.7); it sets the scale of a reference second.
REF_UNIT_S = 0.0005
#: An interval with fewer samples than this borrows the nearest ones.
MIN_SAMPLES = 15
#: Windows with this many samples (5 s) or more use their mean.
MEAN_MIN_UNITS = 250

_SAMPLER = r"""
import os, select, sys, time
cpu, period, path = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3]
os.sched_setaffinity(0, {cpu})
try:
    os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
except OSError:
    pass
class Node:
    __slots__ = ("op", "kids")
    def __init__(self, op, kids):
        self.op = op
        self.kids = kids
def unit():
    table = {}
    for i in range(600):
        node = Node(i & 15, (i, i >> 1))
        table[(node.op, node.kids)] = hash(node.kids) ^ i
    return len(table)
stdin = sys.stdin.fileno()
with open(path, "w") as out:
    while not select.select([stdin], [], [], period)[0]:
        t0 = time.perf_counter()
        unit()
        out.write(f"{t0!r} {time.perf_counter() - t0!r}\n")
        out.flush()
"""


def pin() -> int:
    """Pin this process, and what it starts from now on, to one CPU it
    may run on; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """The sampler process on ``cpu``, writing its samples to ``path``.

    A context manager: leaving it stops the sampler, waits for it and
    removes the file."""

    def __init__(self, cpu: int, path: Path) -> None:
        self.path = path
        self._starts: List[float] = []
        self._units: List[float] = []
        self._pending = ""
        self._file = None
        path.parent.mkdir(parents=True, exist_ok=True)
        self._proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, "-c", _SAMPLER, str(cpu), repr(PERIOD_S), str(path)],
            stdin=subprocess.PIPE,
        )
        deadline = time.monotonic() + 30
        while not self.units(0.0, float("inf")):
            if time.monotonic() > deadline or self._proc.poll() is not None:
                self.stop()
                raise RuntimeError("the calibration sampler did not start")
            time.sleep(0.005)

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self._proc is not None:
            proc, self._proc = self._proc, None
            proc.stdin.close()  # the sampler's signal to finish
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._file is not None:
            self._file.close()
            self._file = None
        self.path.unlink(missing_ok=True)

    def _refresh(self) -> None:
        if self._file is None:
            if not self.path.exists():
                return
            self._file = open(self.path, encoding="utf-8")
        lines = (self._pending + self._file.read()).split("\n")
        self._pending = lines.pop()  # a line still being written
        for line in lines:
            start, unit = line.split()
            self._starts.append(float(start))
            self._units.append(float(unit))

    def units(self, t0: float, t1: float) -> List[float]:
        """Unit times of the samples taken in ``[t0, t1]``, widened
        symmetrically until it holds ``MIN_SAMPLES`` of them."""
        self._refresh()
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_right(self._starts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self._starts)):
            lo, hi = max(0, lo - 1), min(len(self._starts), hi + 1)
        return self._units[lo:hi]

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than the reference machine the CPU ran in
        ``[t0, t1]``: typical unit time over ``REF_UNIT_S``."""
        units = self.units(t0, t1)
        if not units:
            raise RuntimeError("the calibration sampler recorded nothing")
        if len(units) >= MEAN_MIN_UNITS:
            return sum(units) / len(units) / REF_UNIT_S
        return statistics.median(units) / REF_UNIT_S

    def reference_s(self, t0: float, t1: float,
                    seconds: Optional[float] = None) -> float:
        """``seconds`` of CPU-bound work measured in ``[t0, t1]``
        (default all of it) in reference seconds."""
        return (t1 - t0 if seconds is None else seconds) / self.slowdown(t0, t1)
