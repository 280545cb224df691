"""Reference-speed timing for a shared, noisy machine.

Other tenants slow a shared machine by a third or more, for seconds to
minutes at a time, so two runs a few minutes apart disagree by more than
any median inside one run can hide.  Every unit of measured work is
therefore timed next to a fixed calibration kernel (the benchmark's own
Python: interpreter work plus big-int modular exponentiation and
inversion, no program code) and scaled to the speed at which that kernel
takes KERNEL_REF_S:

    reference seconds = wall seconds * KERNEL_REF_S / kernel seconds

The kernel runs before the first unit and again after every SEGMENT_S of
work, each time KERNEL_RUNS times with the median kept; a unit is scaled
by the mean of the kernel times at the two ends of its segment.  The
program cannot make the kernel faster, so a faster program still reads
faster, while a slow spell slows both and cancels out.
"""

from __future__ import annotations

import statistics
from time import perf_counter

KERNEL_REF_S = 0.005
KERNEL_RUNS = 3
SEGMENT_S = 0.25
_MODULUS = (1 << 1021) - 1


def kernel() -> int:
    s = 0
    for i in range(10_000):
        s = (s * 31 + i) & 0xFFFFFFFF
    x = 3
    for _ in range(20):
        x = pow(pow(x, 65537, _MODULUS) + 1, -1, _MODULUS)
    return s ^ x


def kernel_seconds() -> float:
    times = []
    for _ in range(KERNEL_RUNS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def run(thunks: list) -> tuple[list[float], list[float], list]:
    """Call each thunk in turn.

    Returns reference seconds per thunk, wall seconds per thunk, and the
    thunks' results.
    """
    scaled: list[float] = []
    wall: list[float] = []
    results = []
    k_before = kernel_seconds()
    segment_start, segment_time = 0, 0.0
    for i, thunk in enumerate(thunks):
        start = perf_counter()
        results.append(thunk())
        elapsed = perf_counter() - start
        wall.append(elapsed)
        segment_time += elapsed
        if segment_time >= SEGMENT_S or i == len(thunks) - 1:
            k_after = kernel_seconds()
            factor = KERNEL_REF_S / ((k_before + k_after) / 2)
            scaled += [t * factor for t in wall[segment_start:]]
            k_before, segment_start, segment_time = k_after, len(wall), 0.0
    return scaled, wall, results
