"""Host-speed calibration for the benchmark's timings.

On a shared host the same visnav work can take 1.5x longer for tens of
seconds at a time while another tenant is busy, and a run's median cannot
average that away.  So the benchmark runs this fixed kernel between
rounds and scales every time it reports to the speed at which the kernel
takes ``REFERENCE_S``.  The kernel mixes what a simulated tick spends its
time on (frozen-dataclass churn, float math, small numpy allocations,
masks and reductions) and touches no visnav code, so a change to the
program moves the scaled figures and a change of host load mostly does
not.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

#: Seconds one ``kernel()`` call takes on the host the benchmark was
#: defined on (2 shared vCPUs, Python 3.11, numpy 2.4) in a quiet period.
REFERENCE_S = 0.0115
#: Kernel calls per calibration slice.
CALLS = 2


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite point")


def kernel() -> float:
    acc = 0.0
    # interpreter-bound: frozen-dataclass churn and float math, with small arrays
    for i in range(30):
        labels = np.zeros((360, 640), dtype=np.uint8)
        xs = np.arange(40, dtype=np.float64) - 20.3
        d2 = xs[None, :] ** 2 + xs[:, None] ** 2
        labels[100:140, 200:240][d2 <= 300.0] = 1
        rows, cols = np.nonzero(labels[90:150, 190:250] == 1)
        acc += int(cols.sum()) / max(1, int(rows.size))
        p = _Point(0.0, 0.0)
        for j in range(40):
            p = replace(p, x=p.x + 0.1 * j, y=p.y - 0.05)
            acc += math.hypot(p.x, p.y)
    # memory-bound: full-frame float maps, masked writes and scans
    for i in range(10):
        best = np.full((360, 640), np.inf, dtype=np.float64)
        labels = np.zeros((360, 640), dtype=np.uint8)
        xs = np.arange(60, dtype=np.float64) - 30.3
        d2 = xs[None, :] ** 2 + xs[:, None] ** 2
        patch = best[100:160, 200:260]
        win = (d2 <= 800.0) & (d2 < patch)
        patch[win] = d2[win]
        labels[100:160, 200:260][win] = 3
        rows, cols = np.nonzero(labels == 3)
        acc += int(cols.sum()) / max(1, int(rows.size))
    return acc


def slice_s() -> float:
    """Mean seconds per kernel call over one calibration slice."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        kernel()
    return (time.perf_counter() - t0) / CALLS


def to_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, expressed at
    the reference speed."""
    return seconds * REFERENCE_S / kernel_s
