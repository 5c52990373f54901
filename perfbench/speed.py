"""How fast this machine runs right now, from a fixed reference loop.

The CPU speed a shared machine gives a process drifts by a third or more over
tens of seconds, which swamps the differences a benchmark must resolve.  The
worker times this loop just before each op and reports the op's wall time
scaled by NOMINAL_S / (the loop's time): the op's time at the speed at which
the loop takes NOMINAL_S.  The loop does the kind of work the package does:
interpreter-bound Python around small numpy calls.  It uses nothing from the
package, so no change to the package can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.015  # the loop's median time on a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4

_ROWS = np.random.default_rng(0).integers(0, 2, (512, 99), dtype=np.uint8)


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = perf_counter()
    total = 0
    for i in range(300):
        total += int((_ROWS == _ROWS[i]).sum(axis=1).max())
        total += sum({j: 2 * j for j in range(50)}.values())
    return perf_counter() - start
