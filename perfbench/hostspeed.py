"""A fixed reference workload, timed beside the program to gauge host speed.

The shared host this benchmark was tuned on switches between a fast and a
slow state, about 30 % apart, many times a minute, and the share of time
spent fast changes over minutes (README, "Host speed"). Raw timings of the
same code therefore move by a quarter from run to run. Each timed
operation is followed by one call of ``reference``, and the end-to-end
timings are scaled by ``NOMINAL_S / reference time``: the time the
operation would take on a host where the reference takes ``NOMINAL_S``.
The reference is small-matrix numpy and plain Python, like the program's
batch-1 path, and runs no taxseq code, so a change to the program moves
the scaled time as much as the raw one. Raw timings are reported beside
the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# About the reference's median time on the machine described in the README
# (1.2-1.4 ms there); scaled timings read close to raw ones on that machine.
NOMINAL_S = 1.4e-3

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 64)) / 8.0
_X = _rng.standard_normal((21, 64))


def reference() -> float:
    """Run the reference work once and return its wall time in seconds."""
    start = time.perf_counter()
    x = _X
    for _ in range(30):
        a = x @ _W
        a = a - a.max(axis=1, keepdims=True)
        e = np.exp(a)
        x = e / e.sum(axis=1, keepdims=True)
    total = 0
    for i in range(5000):
        total += i * i
    return time.perf_counter() - start


def scaled(seconds: float, ref_seconds: float) -> float:
    """``seconds`` at the nominal host speed, given the reference's time
    measured next to it."""
    return seconds * NOMINAL_S / ref_seconds
