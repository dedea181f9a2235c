"""Machine-speed calibration for the end-to-end timings.

On a shared host the same call can take 60 ms one second and 110 ms
the next: the processor's speed changes with its neighbours' load, and
processor time moves with wall time, so neither clock removes it.  A
fixed kernel that never calls qdiscord is timed next to every state;
dividing a state's wall time by the kernel's time around it removes
the host's speed and leaves the program's.  No change to qdiscord can
move the kernel, so a program gain shows in full.

Scaled times are in milliseconds at the reference speed, at which one
kernel run takes REFERENCE_KERNEL_S.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REFERENCE_KERNEL_S = 0.002
# Time spent calibrating after each state, as a share of its call time.
CALIBRATION_SHARE = 0.03

_MATRIX = np.eye(4, dtype=complex) * 0.5 + 0.01j


def kernel() -> float:
    """Wall time of fixed work in the program's mix: Python float
    arithmetic and small complex numpy products."""
    t0 = perf_counter()
    x = 0.1
    acc = 0.0
    for i in range(3000):
        x = math.sin(x + i) * 0.5 + math.sqrt(abs(x) + 1.0)
        acc += x * x
    m = _MATRIX
    for _ in range(300):
        m = (m @ _MATRIX) * 2.0
        acc += float(m[0, 0].real)
    elapsed = perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


def kernel_time(duration_s: float) -> float:
    """Mean kernel time over about CALIBRATION_SHARE of `duration_s`,
    and at least one kernel run."""
    times = [kernel()]
    while sum(times) < CALIBRATION_SHARE * duration_s:
        times.append(kernel())
    return statistics.fmean(times)


def scale(kernel_s: float) -> float:
    """Factor from wall time at a measured kernel time to reference time."""
    return REFERENCE_KERNEL_S / kernel_s
