"""Host-speed calibration for the CPU-bound workloads.

On a shared host the same pure-Python code runs up to twice as slow while
other tenants load it, in stretches that can last minutes, so neither
the best nor the median pass of a 30-second run is set by the code
alone.  A fixed calibration round, timed right before and right after a
piece of measured work, slows down with it.  Scaling the work's time by
``REFERENCE_S`` over the mean of the two rounds gives *reference
seconds*: the time the work would take on a host that runs one round in
``REFERENCE_S``.  The round is part of the benchmark and never changes
with the program, so a faster program still reads faster.

The round looks up tuples in random order in a dict far larger than
the L2 cache, as the simulator does in its tens of megabytes of job,
event and link objects.  In trials a cache-resident round (heap and
dict operations on a few thousand entries, small numpy vectors) tracked
the program worse than no calibration at all: co-tenants slow
memory-bound code more than they slow a tight loop.
"""

from __future__ import annotations

import random
import resource
import time

#: Seconds one round takes on a quiet 2-vCPU Xeon VM (about the fastest
#: of 150 rounds there; their median was 0.097 s).  Only a scale: any
#: fixed value keeps the adjusted figures comparable between runs.
REFERENCE_S = 0.06

_ENTRIES = 1 << 17
_LOOKUPS = 1 << 16
_PASSES = 4


#: What the lookup table added to this process's peak resident set.  It
#: is built by the first round, which the benchmark takes before the
#: program allocates anything, so the figure can be taken off again.
TABLE_MB = 0.0

_table: dict[int, tuple[int, float, str]] = {}
_order: list[int] = []


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build() -> None:
    global TABLE_MB
    before = _maxrss_mb()
    rng = random.Random(20100913)
    _table.update((i, (i, float(i), str(i))) for i in range(_ENTRIES))
    _order.extend(rng.randrange(_ENTRIES) for _ in range(_LOOKUPS))
    TABLE_MB = _maxrss_mb() - before


def round_s() -> float:
    """Wall seconds one calibration round takes now."""
    if not _table:
        _build()
    table, order = _table, _order
    t0 = time.perf_counter()
    for _ in range(_PASSES):
        total = 0.0
        for key in order:
            total += table[key][1]
    return time.perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor from wall seconds to reference seconds for work timed
    between two rounds."""
    return REFERENCE_S / ((before_s + after_s) / 2.0)
