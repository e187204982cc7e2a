"""The fixed reference kernel that op times are scaled against.

The host's own speed drifts by up to a third between runs of identical
code, so every timed op is followed by one pass of this kernel, and the op
is reported in reference-scaled seconds: wall * R0 / R, where R is that
pass's time. A pass does interpreter float arithmetic (as the pooltest DP
loops do) and a small numpy pass (so work later moved into numpy is scaled
against like work). Its timed part allocates nothing: the iterators and
arrays are made before the clock starts and the ufuncs write in place, so
the program's heap and garbage collector cannot change its time.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

R0 = 0.004  # nominal pass time in seconds; scaled time = wall * R0 / R

FLOAT_STEPS = 32_000
NUMPY_STEPS = 150
NUMPY_WIDTH = 512


class ReferenceKernel:
    def __init__(self):
        self.a = np.linspace(0.5, 1.0, NUMPY_WIDTH)
        self.b = np.linspace(1.0, 0.5, NUMPY_WIDTH)
        self.c = np.empty(NUMPY_WIDTH)
        self.sink = 0.0

    def run(self) -> float:
        """One pass; returns its wall time in seconds."""
        a, b, c = self.a, self.b, self.c
        multiply, add, sqrt = np.multiply, np.add, np.sqrt
        floats = itertools.repeat(None, FLOAT_STEPS)
        arrays = itertools.repeat(None, NUMPY_STEPS)
        x, acc = 0.5, 0.0
        t0 = time.perf_counter()
        for _ in floats:
            x = x * 0.999 + 0.0005
            acc += x * (1.0 - x)
        for _ in arrays:
            multiply(a, b, out=c)
            add(c, a, out=c)
            sqrt(c, out=c)
        elapsed = time.perf_counter() - t0
        self.sink = acc + c[0]
        return elapsed
