"""Op time at the reference machine's speed.

The shared machines this benchmark runs on switch between speed states
(up to about 1.6x apart) for seconds to minutes at a time, affecting
every process alike, so raw wall times of the same code spread by tens
of percent from run to run. Right after each stretch of op work the
meter times a fixed reference, independent of growthcast, and rescales
the stretch by the reference's fast-state time over its time at the
stretch's ends. The result is the time the op would take with the
machine in its fast state; raw wall times are reported next to it.

Two references: an in-process kernel for in-process work, and the start
of a bare interpreter (``python -S -c pass``) for work that is mostly
starting processes, which the machine's states slow by a different
factor than in-process work.
"""

from __future__ import annotations

import marshal
import statistics
import subprocess
import sys
import time

import numpy as np

#: Fast-state times of the two references on the reference machine
#: (2-vCPU Intel Xeon, Python 3.11, numpy 2.4).
REFERENCE_KERNEL_S = 2.55e-4
REFERENCE_SPAWN_S = 0.013

#: Within an op, the reference is timed after the first call that ends
#: at least this long after the previous timing (and at the op's end).
SEGMENT_S = 0.05


_CODE = marshal.dumps(compile("\n".join(f"def f{i}(x):\n    return x + {i}" for i in range(60)), "k", "exec"))


def reference_kernel() -> float:
    """Fixed work of the kinds the workloads do; returns its duration.

    Interpreter loops and dict stores, small-array numpy calls, float
    formatting, unmarshalling code (as imports do) and touching fresh
    memory (as a starting process does).
    """
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(600):
        table[i & 255] = acc = acc * 0.5 + i
    a = np.arange(100.0)
    for _ in range(8):
        a = np.sqrt(a * a + 1.0).cumsum() / 100.0
    "".join(f"{x!r},{x * 1.5!r}\n" for x in a.tolist())
    marshal.loads(_CODE)
    bytearray(1 << 19)[::4096] = bytes(128)
    return time.perf_counter() - t0


def kernel_time(samples: int = 3) -> float:
    """The kernel's median time now, after one untimed run to warm its caches."""
    reference_kernel()
    return statistics.median(reference_kernel() for _ in range(samples))


def spawn_time(samples: int = 1) -> float:
    """Median wall time of starting and ending a bare interpreter."""
    def once() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(samples))


#: reference name -> (its time now, its fast-state time)
REFERENCES = {
    "kernel": (kernel_time, REFERENCE_KERNEL_S),
    "spawn": (spawn_time, REFERENCE_SPAWN_S),
}


def speed_factor(reference: str) -> float:
    """Fast-state time of the reference over its time now."""
    measure, fast = REFERENCES[reference]
    return fast / measure(9)


class SpeedMeter:
    """Accumulates one op's raw and reference-speed time, stretch by stretch.

    Each stretch is rescaled by the mean of the reference's times at its
    two ends (the previous checkpoint's and its own).
    """

    def __init__(self, reference: str):
        self._measure, self._fast = REFERENCES[reference]
        self._last = None

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._mark = time.perf_counter()

    def checkpoint(self) -> None:
        stretch = time.perf_counter() - self._mark
        now = self._measure()
        ends = now if self._last is None else 0.5 * (now + self._last)
        self._last = now
        self.raw += stretch
        self.scaled += stretch * self._fast / ends
        self._mark = time.perf_counter()

    def maybe_checkpoint(self) -> None:
        if time.perf_counter() - self._mark >= SEGMENT_S:
            self.checkpoint()
