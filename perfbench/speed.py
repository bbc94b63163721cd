"""Machine-speed calibration for the benchmark's timings.

On a small virtual machine shared with other tenants the same code can run
at speeds that alternate every few seconds (on a 2-vCPU Xeon VM a
pure-Python loop took about 10 ms in one phase and 19 ms in the other), so
a raw wall time mostly measures how the machine was shared while it ran.  Every timed interval is therefore
bracketed by a fixed calibration, run just before and just after it, and
reported as

    wall time * NOMINAL_S / (mean of the two calibration times)

that is, in seconds at the speed where the calibration takes ``NOMINAL_S``.
The calibration is part of the benchmark, not of the program, so a change
to the program moves the reported time as it moves the wall time.
"""

from __future__ import annotations

import time

import numpy as np

# Time of one calibration at the reference speed.
NOMINAL_S = 0.035
_REPEATS = 40

# Small enough (under 1 MB of temporaries) not to raise the peak resident
# size that the benchmark reports.
_POINTS = (np.arange(384.0).reshape(128, 3) % 7 - 3) * (0.5 + 0.25j)
_TARGETS = (np.arange(768.0).reshape(256, 3) % 5 - 2) * (0.25 - 0.5j)


def _python_loop() -> int:
    # Dict updates, complex arithmetic and allocation, like the sparse layer.
    acc: dict[int, complex] = {}
    for i in range(30000):
        k = (i * 7919) & 2047
        acc[k] = acc.get(k, 0j) + complex(i, -i) * (0.5 + 0.25j)
    return len(acc)


def _numpy_kernel() -> int:
    # Squared distances between two point clouds, like the dense kernels.
    covered = 0
    for _ in range(_REPEATS):
        pn = np.einsum("ij,ij->i", _POINTS.real, _POINTS.real) + np.einsum(
            "ij,ij->i", _POINTS.imag, _POINTS.imag)
        d2 = pn[:, None] - 2.0 * (_POINTS @ _TARGETS.conj().T).real
        covered += int((d2 <= 0.5).any(axis=0).sum())
    return covered


def calibration_seconds() -> float:
    """Wall time of one calibration: the Python loop and the numpy kernel."""
    start = time.perf_counter()
    _python_loop()
    _numpy_kernel()
    return time.perf_counter() - start


def timed(fn, *args):
    """Run ``fn(*args)``; return (result, wall seconds, reference seconds)."""
    before = calibration_seconds()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    after = calibration_seconds()
    return result, wall, wall * NOMINAL_S / ((before + after) / 2.0)
