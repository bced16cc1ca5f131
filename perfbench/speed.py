"""Host-speed correction for timings taken on a shared machine.

On a core shared with busy neighbours the same pure-Python code runs up to
twice as slowly for stretches of seconds to minutes, and process CPU time
slows with it (the neighbour takes cache and execution units, not whole
time slices).  No estimator inside one run removes a stretch that lasts
the whole run.  So a worker runs a fixed reference kernel, independent of
homoglab, between items every ``PROBE_EVERY_S`` of work, and every time
measured between two probes is scaled by ``NOMINAL_S / local kernel time``:
a corrected time is the time the step would have taken on a host where
the kernel takes ``NOMINAL_S``.  Raw times are kept alongside.
"""

from __future__ import annotations

import statistics
import time

_clock = time.perf_counter

KERNEL_ROUNDS = 4000
# The kernel's time on the 2-vCPU Xeon VM this was built on, in its
# faster stretches; corrected times read as seconds on that host.
NOMINAL_S = 0.0013
PROBE_EVERY_S = 0.05
# A segment's kernel time is the median of the probes within this many
# probes of it on either side, so one disturbed probe moves nothing.
WINDOW = 2


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed work of the kinds homoglab does: small-int arithmetic, bit
    operations, dict and set updates.  It allocates only two objects the
    cyclic garbage collector tracks, so a probe does not move the points
    where the program's own collections happen."""
    table: dict[int, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(rounds):
        k = (i * 7919) & 1023
        table[k] = table.get(k, 0) + i
        if k & 1:
            seen.add(k << 10 | k >> 3)
        acc ^= (i << 3) | (k & 77)
    return acc + len(seen)


def probe() -> tuple[float, float]:
    """Run the kernel once; its (start, end) on the perf_counter clock."""
    start = _clock()
    kernel()
    return start, _clock()


def scale_of(durations) -> float:
    """Correction factor for a time measured next to these kernel times."""
    return NOMINAL_S / statistics.median(durations)


def segment_scales(marks: list[tuple[float, float]]) -> list[float]:
    """Factor for each segment between consecutive probes: segment i runs
    from the end of probe i to the start of probe i + 1."""
    durations = [end - start for start, end in marks]
    return [
        scale_of(durations[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i in range(len(marks) - 1)
    ]
