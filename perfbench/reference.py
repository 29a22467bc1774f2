"""Host-speed reference: a fixed kernel timed next to every measured op.

The speed of a shared VM drifts by up to 2x within minutes, and much the
same slowdown falls on all the numerical code that runs at that moment.
The benchmark therefore times this kernel right before each op and
reports each op's wall time rescaled to the kernel's nominal speed:

    scaled = wall * NOMINAL_S / (median kernel time around the op)

A change in canondual moves the numerator only: the kernel is the
benchmark's own code, uses numpy directly and never calls the package.
The raw wall times stay in the report line beside the scaled ones.

The kernel mixes the kinds of work the workloads do: many small numpy
calls (the Newton steps), vectorised passes over sign vectors (the
enumeration arbiter) and one dense ``eigh`` (the large continuous solves).
On the reference VM, scaling by it halved the spread of 20 s window
medians of fixed solves and CLI processes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the 2-vCPU reference VM (Intel Xeon, OpenBLAS
# 0.3.31 pinned to one thread); only the unit of the scaled times rests on it.
NOMINAL_S = 0.002
# Kernel timings on each side of an op whose median rescales it.
WINDOW = 5

_rng = np.random.default_rng(20160518)
_B = _rng.standard_normal((12, 12))
_SMALL = _B @ _B.T + 12.0 * np.eye(12)
_VEC = _rng.standard_normal(12)
_SIGNS = np.arange(256)[:, None] >> np.arange(7, -1, -1)[None, :]
_Q = _rng.uniform(-1.0, 1.0, (8, 8))
_C = _rng.standard_normal((64, 64))
_LARGE = _C + _C.T


def kernel() -> float:
    x = _VEC
    for _ in range(30):  # small solves and eigenvalues, as in a Newton step
        y = np.linalg.solve(_SMALL, x)
        x = _SMALL @ y / (1.0 + float(y @ y))
        np.linalg.eigvalsh(_SMALL)
    best = 0
    for _ in range(8):  # vectorised passes over sign vectors, as in enumeration
        X = ((_SIGNS & 1) * 2 - 1).astype(np.float64)
        best += int(np.argmin(np.einsum("ij,ij->i", X, X @ _Q)))
    w = np.linalg.eigh(_LARGE)[0]  # one dense eigendecomposition
    return best + float(x[0]) + float(w[0])


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(walls: list, refs: list) -> list:
    """Each wall time rescaled by the median kernel time of its window."""
    return [wall * NOMINAL_S / statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
            for i, wall in enumerate(walls)]
