"""Host-speed calibration: a fixed kernel timed around every measured op.

On a shared host the same code runs up to twice as slow for seconds to tens
of seconds at a time, and its CPU time slows down with its wall time.  The
benchmark therefore times this kernel right before and after each op and
scales the op's latency by ``REFERENCE_S`` over the kernel's time there.
Times reported this way are in seconds of the reference host at its quiet
speed: a faster program still reads faster, a host that is slow for the
whole run no longer does.

The kernel mixes what the workloads do: transcendental ufuncs and a
cumulative sum over 2^18 points (the grid kernels), and float formatting
and parsing in pure Python (the table writers and the CLI).  It uses numpy
and the standard library only, never susyq, so no change to the program can
move it.
"""

from __future__ import annotations

import time

import numpy as np

# wall (and CPU) time of one kernel() call on the reference host, a 2-vCPU
# KVM guest on an Intel Xeon with numpy 2.4, when that host is quiet: the 10th
# percentile of about a thousand calls over ten benchmark runs (the median was
# 0.026 s; the host is slow more often than not)
REFERENCE_S = 0.016

_X = np.linspace(-6.0, 6.0, 1 << 18)
_CELLS = 4500


def kernel() -> float:
    y = np.exp(-0.5 * _X * _X) * np.sin(3.0 * _X) + np.log1p(_X * _X)
    z = np.cumsum(y) * (_X[1] - _X[0])
    text = "\n".join(f"{a!r},{b!r}" for a, b in zip(y[:_CELLS].tolist(), z[:_CELLS].tolist()))
    back = [float(cell) for line in text.splitlines() for cell in line.split(",")]
    return float(z[-1]) + back[-1]


def calibrate() -> tuple:
    """One timed kernel call: (wall seconds, process CPU seconds)."""
    c0, t0 = time.process_time(), time.perf_counter()
    kernel()
    t1, c1 = time.perf_counter(), time.process_time()
    return t1 - t0, c1 - c0
