"""Machine-speed probe: a fixed kernel timed either side of each measured call.

On a shared virtual machine the same code runs 10-40% slower in spells
that last from seconds to many minutes, so the medians of two runs minutes
apart can differ by more than any change under test. The probe kernel does
the kinds of work the workloads do, in about equal shares of time: Python
interpretation, numpy arithmetic on desk-sized (32x32x8) and full-scale
(128x128x16) arrays, and a stream over an array larger than the processor's
private caches. Its time tracks the workloads' own: over runs of 150-330 s
on a shared 2-vCPU machine, the log-times of single method calls and of
the probes either side correlated at 0.6-0.8, and dividing by the probe
cut the spread of 30-55 s medians by half or more. It uses nothing from
fluvinv, so no change to the program moves it. The Python part allocates
no objects the garbage collector tracks, so the heap a workload leaves
behind does not change its cost.

A calibrated time is the call's wall time divided by the mean time of the
probes either side of it, times :data:`REFERENCE_S`: the call's duration
on a machine as fast as the reference one, whatever the speed of the
moment.
"""

from __future__ import annotations

import time

import numpy as np

# about the median probe time on the reference machine: a 2-vCPU x86-64
# virtual machine ("Intel Xeon Processor"), Python 3.11, numpy 2.4, one BLAS
# thread
REFERENCE_S = 12.0e-3

_RNG = np.random.default_rng(0)
_DESK = _RNG.random((2, 8, 32, 32))
_FULL = _RNG.random((2, 16, 128, 128))
_STREAM = _RNG.random(4_000_000)    # 32 MB, beyond the private caches


def _interpret(n=20000):
    counts, total = {}, 0.0
    for i in range(n):
        k = i & 255
        counts[k] = counts.get(k, 0.0) + 0.5 * i
        total += counts[k]
    return total


def _arrays(pair, n):
    a, b = pair
    for _ in range(n):
        c = 1.0 / (1.0 + np.exp(-(a * b + a)))
        a = 0.5 * c + 0.25 * b
    return float(a.sum())


def probe():
    """Wall seconds of one pass of the probe kernel."""
    t0 = time.perf_counter()
    _interpret()
    _arrays(_DESK, 60)
    _arrays(_FULL, 1)
    for _ in range(2):
        float(_STREAM.sum())
    return time.perf_counter() - t0


def calibrated(seconds, probes):
    """Median over calls of wall time / probe time, times REFERENCE_S."""
    return float(np.median(np.asarray(seconds) / np.asarray(probes))) * REFERENCE_S
