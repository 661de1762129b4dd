"""The machine's current speed, from a fixed calibration kernel.

The benchmark runs on shared hosts whose speed for the same single-threaded
Python code drifts by up to 2x, in stretches of seconds to minutes; the
process's CPU time drifts with the wall time, so the slowdown is the
processor's, not the scheduler's.  ``calibrate`` is a fixed piece of
benchmark-owned work in the program's own style, exact Gauss-Jordan
elimination over ``Fraction`` rows, and never calls the program.  Timed
next to the program, it tells how fast the machine is running at that
moment: a time ``t`` measured while ``calibrate`` takes ``c`` seconds is
reported as ``t * REFERENCE_S / c``, the time the same work would take at
the speed at which ``calibrate`` takes ``REFERENCE_S``.  A change to the
program moves ``t`` only.

The mean of the nearby calibrations is used, not their median: the machine
flips between fast and slow at a finer grain than one instance, and an
instance's time adds up both, as the mean does.  Measured on such a host,
a window's program time then moved with the calibrations' mean by a factor
0.92-0.98, against 0.70 for their median.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

# A round figure near calibrate()'s time on a 2-vCPU Xeon VM, Python 3.11
# (0.5 to 1 ms, as the machine drifts).
REFERENCE_S = 0.001

# Calibrations on each side of a timed segment that set its speed.
WINDOW = 2

# Set-up is timed in segments of at least this long, each then calibrated.
SEGMENT_S = 0.02


def _matrix(rows: int, cols: int) -> tuple[tuple[Fraction, ...], ...]:
    rng = random.Random(20140402)
    return tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(cols)) for _ in range(rows))


_MATRIX = _matrix(5, 8)


def calibrate() -> float:
    """Run the fixed calibration kernel once; returns its wall time in seconds.

    The garbage collector is held off meanwhile, so that the program's heap
    does not add to the calibration's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    rows = [list(row) for row in _MATRIX]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


def scale(times: list, calibrations: list[float]) -> list:
    """Each time at reference speed, set by the mean of its nearby calibrations.

    ``calibrations[i]`` was taken right after ``times[i]``; a None time
    stays None.
    """
    out = []
    for i, t in enumerate(times):
        near = calibrations[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(None if t is None else t * REFERENCE_S / statistics.fmean(near))
    return out
