"""Machine-speed calibration for the benchmark's timings.

On a shared 2-core host the same CLI job on the same input took anywhere
from 0.29 s to 0.59 s, depending on the load of other tenants, in phases
that last from seconds to minutes: the median wall time of a 20-second
window spread by 20-30% (IQR over median) from window to window on the
same code. A fixed reference loop timed right next to each job slows down
with the machine, and the median of job time over loop time spread by
3-6% over the same windows.

calibrate() times that loop. It mixes the two kinds of work the package
spends its time in, interpreted Python and numpy calls on small arrays, and
never touches khcluster, so no change to the package can change it.
scaled() turns a wall time into seconds at the reference speed, the speed at
which one loop takes REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np

# about the median calibrate() time on a shared 2-core x86-64 host (Python
# 3.11, numpy with OpenBLAS); it only scales the reported seconds and does
# not change their spread
REFERENCE_S = 0.030

_BASE = np.arange(64.0)


def _loop() -> float:
    acc = 0.0
    table: dict[int, int] = {}
    for i in range(6000):
        b = _BASE * i
        acc += float(b.sum()) + float(np.argmin(b))
        table[i & 63] = table.get(i & 63, 0) + i
    return acc + len(table)


def calibrate() -> float:
    """Wall seconds of one reference loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scaled(wall_s: float, cal_s: float) -> float:
    """wall_s converted to seconds at the reference speed, given the loop's
    time cal_s measured next to it."""
    return wall_s * REFERENCE_S / cal_s
