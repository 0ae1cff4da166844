"""Follow the host's speed with a fixed reference piece of work.

The benchmark runs on machines shared with other tenants, where the same code
runs at a speed that wanders from second to second, and by a third or more
for minutes at a time, longer than one run.  So the worker times one call of
a fixed reference (plain Python with fractions, dicts and sorting, and small
numpy array arithmetic, the kinds of work orbindex does) right after every
op and after set-up, and scales that op's or set-up's time to a host that
runs the reference in REFERENCE_MS:

    scaled time = measured time * REFERENCE_MS / time of the reference call after it

The op and the call right after it see nearly the same host speed, and the
call runs with the caches the program left, as the program's own code does:
scaling each op by its own call steadied the figures more than scaling a
whole run by its median call, or by a reference timed in a warm loop.  The
reference is part of the benchmark, not of orbindex, and each op gets one
call however long it took, so a change to the program moves the scaled
figures as much as the measured ones.  The garbage collector is paused while
the reference runs, so that the program's heap does not slow it down.  Every
run also prints its unscaled figures.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

# Median time of reference() on the 2-vCPU Xeon VM the benchmark was built on.
REFERENCE_MS = 0.6


def reference() -> None:
    s = Fraction(0)
    table = {}
    for i in range(1, 120):
        s += Fraction(i % 7 + 1, i % 5 + 2)
        table[(i, i % 3)] = s
    sorted(table, key=lambda k: (k[1], -k[0]))
    a = np.arange(64.0)
    for _ in range(10):
        a = np.exp(-a * 0.01) + a.sum() * 1e-6


def scale() -> float:
    """Time one reference call; return the factor that scales the op timed
    just before it to the reference host."""
    clock = time.perf_counter
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        reference()
        ms = (clock() - t0) * 1e3
    finally:
        if was_enabled:
            gc.enable()
    return REFERENCE_MS / ms
