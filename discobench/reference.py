"""A fixed reference kernel that measures how fast the host is right now.

On a host shared with other virtual machines, their load moves the speed of
the same code by up to 1.7x over a few minutes. The benchmark therefore times
this kernel once a round, next to the solves, and divides solve and set-up
times by the host speed it measures (``host_speed``): the results are seconds
on a host that runs each part of the kernel in its nominal time. The kernel
is the benchmark's own code on inputs that never change, so a change to the
program moves the ratio and a change of host speed moves both sides of it.

The kernel has two parts, timed apart, one for each of the operations the
workloads spend most of their time in, on working sets of the same size:
single-vector ``cho_solve`` on four 1000x1000 Cholesky factors (the
preconditioner of the wide workloads) and matvecs with a 500x50000 sparse
matrix at 2% density and its transpose (the tall workload). Dense solves
stream 32 MB and slow down more under the host's load than the matvecs; each
workload weighs the two parts by its ``dense_share`` (workloads.py).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse
from scipy.linalg import cho_factor, cho_solve

# About the wall seconds of each part on a quiet 2-vCPU Xeon virtual machine.
DENSE_NOMINAL_S = SPARSE_NOMINAL_S = 0.2
BLOCKS, BLOCK = 4, 1000
SPARSE_SHAPE, SPARSE_DENSITY = (500, 50_000), 0.02
DENSE_REPS, SPARSE_REPS = 24, 96


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.factors = []
        for _ in range(BLOCKS):
            a = rng.standard_normal((BLOCK, BLOCK // 4))
            self.factors.append(cho_factor(a @ a.T / a.shape[1] + 1e-2 * np.eye(BLOCK), lower=True))
        self.matrix = scipy.sparse.random(
            *SPARSE_SHAPE, density=SPARSE_DENSITY, format="csr", random_state=rng
        )
        self.r = rng.standard_normal(BLOCK)
        self.x = rng.standard_normal(SPARSE_SHAPE[1])
        self.y = rng.standard_normal(SPARSE_SHAPE[0])

    def run(self) -> tuple[float, float]:
        """Wall seconds of the dense part and of the sparse part."""
        start = time.perf_counter()
        for _ in range(DENSE_REPS):
            for factor in self.factors:
                cho_solve(factor, self.r)
        middle = time.perf_counter()
        for _ in range(SPARSE_REPS):
            self.matrix @ self.x
            self.matrix.T @ self.y
        return middle - start, time.perf_counter() - middle


def host_speed(dense_share: float, times) -> float:
    """How much slower than nominal the host ran the kernel calls ``times``
    (pairs from ``Reference.run``), weighing the dense part by ``dense_share``."""
    dense = statistics.median(t[0] for t in times) / DENSE_NOMINAL_S
    sparse = statistics.median(t[1] for t in times) / SPARSE_NOMINAL_S
    return dense_share * dense + (1 - dense_share) * sparse
