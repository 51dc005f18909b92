"""Fixed reference work that gauges the host's current speed.

The benchmark's 2-vCPU host runs the same code up to about 1.6x slower or
faster for seconds to minutes at a time, with no steal time the guest could
see. ``reference_s`` times fixed dense LAPACK work: an ``eigh`` and an SVD
of a 600x600 matrix and two ``eigh`` of a 1000x1000 one. Dividing a
workload time by the mean of the reference times taken just before and
just after it removes most of the host's speed from the workloads that
follow it (child.py says which). Interpreter-bound reference work was
tried and swings further than the workloads do, so it is left out.

The functions are bound here, before the layer tracer wraps
``scipy.linalg``, so the tracer never counts the reference work.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import eigh, svd

# Seconds the reference work takes at the nominal speed, a typical one of
# the 2.1 GHz cores of the 2-vCPU host the bounds were set on.
REFERENCE_NOMINAL_S = 0.3


def _symmetric(n: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.sin(np.arange(n * n, dtype=float)).reshape(n, n)
    s = x @ x.T
    s.flat[:: n + 1] += n
    return x, s


def reference_s() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    x, s = _symmetric(600)
    eigh(s, eigvals_only=True)
    svd(x, compute_uv=False)
    _, s = _symmetric(1000)
    for _ in range(2):
        eigh(s, eigvals_only=True)
    return time.perf_counter() - t0
