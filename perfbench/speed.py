"""Timing normalised to the machine's current speed.

Other tenants of the host slow this machine by 10-25 % for tens of seconds at
a time, and every kind of CPU-bound work slows in step.  The benchmark
therefore samples a fixed reference loop between operations, outside the
timed work, and scales the times of a repetition by the loop's nominal time
over its median sample: the result is the time the work would take on a
machine where the loop takes its nominal time (about its time on an idle
2-vCPU x86-64 VM).  The figures below are quartile spreads of window medians
measured on such a VM while other tenants were busy.
"""

from __future__ import annotations

import statistics
import time

from mpmath import iv

MIN_SEGMENT_S = 0.5


def _bigint_work() -> None:
    acc = 0
    for i in range(100_000):
        acc += (i * i) % 7
    x = 3 ** 30_000
    for _ in range(60):
        acc += (x * x) & 1


def _interval_work() -> None:
    old = iv.prec
    iv.prec = 64
    try:
        x, y = iv.mpf(["1.2345", "1.2346"]), iv.mpf(3)
        for _ in range(2000):
            iv.log((x * y + x) / y)
    finally:
        iv.prec = old


# Reference loops and their nominal times.  A loop tracks the machine's speed
# best for work like its own: over 10 s windows, big-integer products tracked
# the search (spread 9 % raw, 6 % normalised) and mpmath interval arithmetic
# tracked the cascade cell scans (13 % -> 4 %) and the pf_member queries
# (9 % -> 5 %).
REFERENCES = {"bigint": (_bigint_work, 0.068), "interval": (_interval_work, 0.061)}


def reference_loop(kind: str) -> float:
    """Seconds the reference loop of ``kind`` takes now."""
    work = REFERENCES[kind][0]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def speed_factor(kind: str, ref_s: list[float]) -> float:
    return REFERENCES[kind][1] / statistics.median(ref_s)


class Clock:
    """Work time, raw and speed-normalised.

    Callers time their operations with ``time.perf_counter`` as usual, report
    each with ``op`` (or ``wait`` for time spent waiting on a timer, which is
    not computation and is never scaled), and call ``checkpoint`` between
    operations.  Once ``MIN_SEGMENT_S`` of work has passed since the last
    sample, a checkpoint runs the reference loop outside the timed work.  The
    speed factor is the loop's nominal time over the median of all samples,
    which a single interrupted or unusually fast sample does not move.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.raw_s = 0.0
        self.op_ms: list[float] = []
        self.wait_ms: list[float] = []
        self.ref_s: list[float] = [reference_loop(kind)]
        self._start = time.perf_counter()

    def op(self, ms: float) -> None:
        self.op_ms.append(ms)

    def wait(self, ms: float) -> None:
        self.wait_ms.append(ms)

    def checkpoint(self, force: bool = False) -> None:
        work = time.perf_counter() - self._start
        if work < MIN_SEGMENT_S and not force:
            return
        self.raw_s += work
        self.ref_s.append(reference_loop(self.kind))
        self._start = time.perf_counter()

    def factor(self) -> float:
        return speed_factor(self.kind, self.ref_s)

    def norm_wall_s(self) -> float:
        waited = sum(self.wait_ms) / 1e3
        return (self.raw_s - waited) * self.factor() + waited

    def norm_op_ms(self) -> list[float]:
        return [ms * self.factor() for ms in self.op_ms] + self.wait_ms

