"""Per-layer spans recorded from outside the program.

The solver imports its kernels by name (``from .linalg import spmv``), so the
tracer replaces the names where the caller looks them up -- the ``disco.solver``
module globals and the ``Cluster``/``BlockPreconditioner`` class attributes --
and restores the originals on exit. Wrapping ``disco.linalg.spmv`` itself would
miss every call. A span's self time is its duration minus the durations of the
spans opened inside it, so the self times of all layers sum to the root span.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from disco import solver
from disco.comm import Cluster
from disco.solver import BlockPreconditioner

# (owner, attribute, layer); layers listed twice aggregate both names.
TRACED = (
    (solver, "disco_outer", "solver.disco_outer"),
    (solver, "pcg_samples", "solver.pcg"),
    (solver, "pcg_features", "solver.pcg"),
    (solver, "partition_by_samples", "partition"),
    (solver, "partition_by_features", "partition"),
    (solver, "build_preconditioner", "solver.precond_build"),
    (solver, "build_preconditioner_features", "solver.precond_build"),
    (BlockPreconditioner, "apply", "solver.precond_apply"),
    (BlockPreconditioner, "apply_block", "solver.precond_apply"),
    (solver, "spmv", "linalg.spmv"),
    (solver, "spmv_transpose", "linalg.spmv_transpose"),
    (solver, "grad_coeffs", "losses.coeffs"),
    (solver, "hess_coeffs", "losses.coeffs"),
    (Cluster, "broadcast", "comm.collectives"),
    (Cluster, "reduce_all", "comm.collectives"),
    (Cluster, "reduce_concat", "comm.collectives"),
    (Cluster, "map_nodes", "comm.map_nodes"),
)
# Layers whose first argument is a SparseBlock: also count nonzeros touched.
NNZ_LAYERS = ("linalg.spmv", "linalg.spmv_transpose")
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TRACED))


class Tracer:
    """Accumulates self time, calls and nonzeros per layer while installed."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.nnz = Counter()
        self._child_s = [0.0]  # time covered by child spans, one slot per open span

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.nnz.clear()

    def _wrap(self, layer: str, fn):
        stack, self_s, calls, nnz = self._child_s, self.self_s, self.calls, self.nnz
        count_nnz = layer in NNZ_LAYERS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[layer] += duration - stack.pop()
                stack[-1] += duration
                calls[layer] += 1
                if count_nnz:
                    nnz[layer] += args[0].nnz

        return span

    @contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TRACED]
        try:
            for (owner, attr, fn), (_, _, layer) in zip(originals, TRACED):
                setattr(owner, attr, self._wrap(layer, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
