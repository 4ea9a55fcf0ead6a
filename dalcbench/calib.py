"""Host-speed calibration: timings in reference seconds.

Shared machines change speed by tens of percent within a minute, for every
process on them, and raw wall times change with them.  So the benchmark
runs fixed calibration work at operation boundaries, at least once a
second, and scales each operation's wall time by the samples taken around it:

    reference seconds = wall seconds * reference calibration / calibration

The work resembles what the workload does: pure Python (arithmetic,
hashing of tuples and frozensets, frozen-dataclass trees) for the
reasoner, plus NumPy array passes for the model search.

A host running at the reference speed reads the same in both units; a
change to dalc moves the wall time but not the calibration, so it shows in
full.  The calibration runs with the garbage collector off, so the size of
the reasoner's heap does not leak into it.
"""

from __future__ import annotations

import bisect
import gc
import time
from dataclasses import dataclass

# Calibration time of each kind of work that defines one reference second:
# about the median sample on a 2-vCPU x86-64 virtual machine at 2.0 GHz with
# CPython 3.11 and NumPy 2.4.
REFERENCE_S = {"python": 0.025, "numpy": 0.025}

INTERVAL_S = 1.0


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


def _tree(depth: int, leaf: int) -> object:
    return leaf if depth == 0 else _Pair(_tree(depth - 1, leaf), _tree(depth - 1, leaf + 1))


def _python_work() -> int:
    acc = 0
    for i in range(100_000):
        acc += i * i
    seen: dict = {}
    for i in range(8_000):
        key = frozenset((i % 97, i % 89, i % 83))
        seen[key] = seen.get(key, 0) + 1
    trees = {_tree(5, i % 7) for i in range(100)}
    return acc + len(seen) + len(trees)


def _numpy_work() -> int:
    """Shifts, masks, compares and table lookups over fresh int64 arrays,
    as the model search does on its configuration rows."""
    import numpy as np

    table = (np.arange(1 << 16) % 251).astype(np.uint8)
    rows = np.arange(1 << 18, dtype=np.int64)
    acc = 0
    for k in range(6):
        a = (rows >> (k * 2)) & 0xFFFF
        b = (rows >> (k * 2 + 3)) & 0xFFFF
        acc += int(np.flatnonzero(((a & b) != 0) & (table[a] < table[b])).size)
    return acc


WORK = {"python": _python_work, "numpy": _numpy_work}


def sample(kinds: tuple[str, ...]) -> float:
    """Seconds the calibration work of ``kinds`` takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for kind in kinds:
            WORK[kind]()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibration samples over a run, and the conversion of intervals
    between them to reference seconds.  ``kinds`` names the calibration
    work that matches the workload: ``python`` for the reasoner, plus
    ``numpy`` for the model search."""

    def __init__(self, kinds: tuple[str, ...] = ("python",)) -> None:
        self.kinds = kinds
        self.reference_s = sum(REFERENCE_S[k] for k in kinds)
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        s = sample(self.kinds)
        self.times.append(time.perf_counter())
        self.samples.append(s)

    def tick(self) -> None:
        """Sample if the last sample is older than ``INTERVAL_S``."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def reference(self, start: float, wall: float) -> float:
        """``wall`` seconds that began at ``start``, in reference seconds,
        scaled by the mean of the two samples just before and the two just
        after: the host's speed drifts within an operation, so one sample on
        each side is too few for the long ones."""
        k = bisect.bisect_right(self.times, start)
        near = self.samples[max(k - 2, 0) : k + 2]
        return wall * self.reference_s * len(near) / sum(near)
