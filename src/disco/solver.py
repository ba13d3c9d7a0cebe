"""Damped inexact-Newton outer loop: one PCG recurrence, two data layouts.

The outer loop repeats: evaluate the gradient, solve the Newton system
H v = grad approximately with preconditioned conjugate gradient, then apply
the damped update w <- w - v / (1 + delta) with delta = sqrt(v'Hv). The inner
tolerance follows the relative rule eps_k = theta * ||grad||, 0 < theta < 1.

For the square loss H does not depend on w, and with c = delta/(1 + delta)
the next gradient is g_{k+1} = g_k - Hv_k/(1 + delta) = r_k + c*Hv_k, so
g_{k+1} - c*Hv_k is the step's final residual r_k. The next step therefore
continues the same CG recurrence from v = c*v_k, Hv = c*Hv_k and the carried
r, s and search direction u (a ``PcgState``), and a solve is one
unrestarted CG run cut at each eps_k. A step whose carried residual already
meets eps_k returns c*v_k, which the master already holds, with
delta = c*delta_k, and sends nothing; a continued step's first curvature
round still carries r's, so the collectives per inner iteration are those
of a cold step. The logistic Hessian moves with w, so a logistic step starts
from v = 0.

The recurrence, the preconditioner build, the outer loop and both products
(gradient and Hessian) are written once, over a small layout object. In both
layouts a solver vector (w, grad, r, s, u, v, Hu, Hv) is one length-d float64
array and a sample-space vector (margins X'w, curvature h, labels) one
length-n array; the layouts differ only in where the per-node work runs and
what combining it costs:

* ``_SampleLayout``: node j works on its samples' slice of a sample-space
  vector and the master holds every solver vector whole, so dot products are
  free; each product broadcasts its direction and reduce-alls the per-node
  contributions (R^d each).
* ``_FeatureLayout``: node i works on its feature block's slice of a solver
  vector and holds every sample-space vector whole; each product costs one
  length-n reduce_all (X'u), the dot products ride two scalar reduce_alls
  per inner iteration (the first also carries the initial <r, s>; the second
  carries r's, ||r||^2 and v'Hv), and a step that ran any inner iteration
  ends with a concatenating reduce that assembles the direction on the
  master.

A broadcast or reduce_all returns the one read-only array that every node
then holds, so no layout keeps per-node replicas; PCG never writes into an
array it did not just allocate.

Both layouts run the same pair of products: the per-node transposed
products of the split matrix's row blocks (X by features, X' by samples),
reduced over the nodes, and the other product (X c by features, X'u by
samples). The partial products run as one kernel call over the partition's
stack of the blocks, whose every row holds one node's terms, or, when every
block is no taller than wide, as a scatter whose m results can together
outgrow the cache (8 x 50,000 doubles on the tall benchmark workload), so
node i's is computed from its own block only when the reduce_all asks for
it, and is added while it is still in cache. Either way the collectives,
their rounds and their bytes are those of a per-node run. A Woodbury
preconditioner applies its blocks as one call each way, over one stack of
their slices and its transpose.

A logistic solve runs the other product as one product with the unsplit X
(``spmv``, ``spmv_transpose``). A square-loss solve sums it, unmetered,
over the other layout's split (its ``mirror``, into min(size, m) parts) in
node order, as that layout's reduce_all sums it, and the sample layout sums
its dot products over the feature split as the feature layout's scalar
reduce_alls do. The sample layout's margins come from X's row blocks, or,
when one is taller than wide, from X' cut at the feature offsets; the
feature layout's data term, each part divided by n, from X' row blocks when
X is taller than wide, else from X cut at the sample offsets (``cut_rows``:
a new row pointer over X's arrays, multiplied forward, each of its rows one
node's part of one output element). Every other operation is elementwise on
the same arrays in both layouts, so square-loss iterates are bitwise equal
across layouts, and a CG run continued over many steps cannot drift
between them. A logistic solve restarts PCG at every step, and summing its
products over both splits cost more time than it bought, so it keeps its
own order.

Both layouts use the same preconditioner: a feature-block-diagonal curvature
matrix estimated from the first tau samples,

    P_b = (1/tau) * sum_{j<tau} h_j x_j^(b) (x_j^(b))' + mu * I

per block b of the balanced split of the d features into min(d, m) blocks
(the feature layout's own split), inverted once per build. DiSCO takes
mu > 0, and so does ``SolverConfig``, so every P_b is positive definite. A
build inverts one kind of matrix for every block, from its Cholesky factor
(LAPACK ``potri``), and applies each inverse with one BLAS symmetric matvec
(``dsymv``):

* tau below every block's size: P_b is mu*I plus a rank-tau term; block b
  keeps C_b = diag(s) K^{-1} diag(s), s = sqrt(h),
  K = mu*tau*I + diag(s) X_b'X_b diag(s), over its sparse d_b x tau slice
  X_b, and solves by the Woodbury identity, (r - X_b C_b X_b' r) / mu;
* otherwise every block keeps the inverse of the dense d_b x d_b P_b (on a
  12-feature test problem at m <= 4 the layouts' iterates drift apart by up
  to 2e-7 relative through Woodbury, by 4e-10 through the dense inverse).
  Block sizes differ by at most one, so no dense block is larger than
  (tau + 1) x (tau + 1).

The O(size^3) inverses, once per build, pay back over the PCG solve that
follows: a build runs once per solve for the square loss and at every Newton
step for the logistic loss. A partition's first build cuts the first tau
columns of X into the blocks and keeps in the partition's ``cache`` what
every later build reads: for Woodbury, each block's dense tau x tau Gram
X_b'X_b (one sparse product per block per solve) and the d x k*tau stack of
the slices, block b in columns b*tau:(b+1)*tau, whose transpose (built once
and cached on it) serves the apply's first product; otherwise each block's
dense d_b x tau slice. Only the sqrt(h) scaling depends on the iterate, so a
logistic rebuild at every Newton step slices nothing and creates no sparse
matrix: Woodbury scales each kept Gram by sqrt(h) on both sides, an
O(tau^2) pass, adds mu*tau*I and inverts it; a dense build forms and
inverts each d_b x d_b Gram. The price is one extra tau x tau array per
block for the life of the partition, 8 MB per block at the default
tau = 1000. With identical preconditioners the two layouts produce the same
iterates, up to roundoff for the logistic loss and bit for bit for the
square loss, so layout only changes communication cost, not the
optimization path.

Every product loops over the operand's shorter side: an operand with more
rows than columns multiplies through a CSR copy of its transpose built on
its first product and through the CSC view of that copy; one with no more
rows than columns through its CSR matrix and its CSC view. Both kernels add
each output element's terms in ascending index order, starting from 0.0, so
each node's part of a stacked product has the bits of a per-node product.

A solve is described once: the partition gives the data, n and the feature
block split, ``SolverConfig`` the loss, lam and every solver parameter; a
layout validates the config, and that tau fits the data, when it is built.
Each PCG solve is handed what the outer loop already holds: the gradient and
margins from its metered exchange, the preconditioner and, for the square
loss, the state to continue from.

The layout objects call the public entry points (``pcg_*``,
``build_preconditioner*``), the partitioners and the kernels through this
module's globals at call time, so replacing one of those names catches every
call: the benchmark's tracer times the layers that way, and the tests record
the Newton steps and preconditioned residuals of a solve, which the solver
itself does not keep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .comm import Cluster
from .linalg import SparseBlock, cut_rows, matvec, spmv, spmv_transpose, stack_row_blocks
from .losses import Choice, LossKind, grad_coeffs, hess_coeffs
from .partition import (
    FeaturePartition,
    SamplePartition,
    balanced_sizes,
    partition_by_features,
    partition_by_samples,
    split_rows,
)

__all__ = [
    "PartitionMode",
    "SolverConfig",
    "PcgState",
    "NewtonStepResult",
    "TraceRecord",
    "DiscoResult",
    "BlockPreconditioner",
    "build_preconditioner",
    "build_preconditioner_features",
    "pcg_samples",
    "pcg_features",
    "damped_update",
    "disco_outer",
]


class PartitionMode(Choice):
    SAMPLES = "samples"
    FEATURES = "features"


@dataclass
class SolverConfig:
    """Solver parameters. ``tau``/``max_inner`` of None mean "pick the default
    at solve time": tau = min(1000, the master's sample shard), max_inner =
    min(5d, 10000). ``loss`` and ``partition_mode`` take an enum member or its
    string value and hold the member."""

    lam: float
    mu: float = 1e-4
    tau: int | None = None
    loss: LossKind = LossKind.SQUARE
    theta: float = 1e-4
    outer_tol: float = 1e-8
    max_outer: int = 50
    max_inner: int | None = None
    partition_mode: PartitionMode = PartitionMode.SAMPLES

    def __post_init__(self):
        self.loss = LossKind(self.loss)
        self.partition_mode = PartitionMode(self.partition_mode)

    def validate(self):
        self.__post_init__()  # also coerces, or rejects, a kind assigned after construction
        for name in ("lam", "mu", "theta", "outer_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("tau", "max_inner", "max_outer"):
            value = getattr(self, name)
            optional = () if name == "max_outer" else (type(None),)  # None picks a default
            if isinstance(value, bool) or not isinstance(value, (int, np.integer, *optional)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.mu <= 0:  # mu > 0 makes P_b = curvature + mu*I positive definite for any curvature
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.tau is not None and self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.theta >= 1:  # eps_k >= ||grad|| accepts the zero direction at every step
            raise ValueError(f"theta must be below 1, got {self.theta}")
        if self.outer_tol <= 0:
            raise ValueError(f"outer_tol must be positive, got {self.outer_tol}")
        if self.max_outer < 0:
            raise ValueError(f"max_outer must be >= 0, got {self.max_outer}")
        if self.max_inner is not None and self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")

    def resolved_tau(self, available: int, master_shard: int | None = None) -> int:
        """tau, checked against the ``available`` samples. The default is
        min(1000, master_shard) in both layouts, so that they share one
        preconditioner; ``master_shard`` defaults to ``available``, as in the
        sample layout, where the two coincide."""
        if self.tau is None:
            return min(1000, available if master_shard is None else master_shard)
        if self.tau > available:
            raise ValueError(f"tau={self.tau} exceeds the {available} samples available for the preconditioner")
        return self.tau

    def resolved_max_inner(self, d: int) -> int:
        return min(5 * d, 10000) if self.max_inner is None else self.max_inner


class PcgState(NamedTuple):
    """Where a PCG run stands, to continue from: the solution v, its product
    Hv, the residual r = grad - Hv as the recurrence carries it, the
    preconditioned residual s and the next search direction u (both None
    before the first iteration), and delta = sqrt(v'Hv)."""

    v: np.ndarray
    Hv: np.ndarray
    r: np.ndarray
    s: np.ndarray | None
    u: np.ndarray | None
    delta: float

    def scaled(self, c: float) -> "PcgState":
        """The state with v, Hv and delta scaled by c."""
        return self._replace(v=c * self.v, Hv=c * self.Hv, delta=c * self.delta)


@dataclass
class NewtonStepResult:
    """Inexact Newton direction and its damping certificate, and the PCG
    state the step ended in."""

    direction: np.ndarray
    delta: float
    inner_iters: int
    residual_norm: float
    converged: bool
    state: PcgState


@dataclass(frozen=True)
class TraceRecord:
    """Per-outer-iteration telemetry; cumulative fields cover all work done
    before this iteration's inner solve."""

    outer_iter: int
    grad_norm: float
    inner_iters_cum: int
    rounds_cum: int
    bytes_cum: int
    wall_ms: float


@dataclass
class DiscoResult:
    """Outcome of ``disco_outer``. ``inner_unconverged`` counts the inner
    solves that stopped at ``max_inner`` above their tolerance."""

    w: np.ndarray
    trace: list
    converged: bool
    inner_iters_total: int
    inner_unconverged: int

    @property
    def grad_evals(self) -> int:
        """One trace row per gradient evaluation."""
        return len(self.trace)

    @property
    def updates(self) -> int:
        """Every gradient evaluation but the last is followed by an update."""
        return len(self.trace) - 1


# ---------------------------------------------------------------------------
# Preconditioner
# ---------------------------------------------------------------------------


# The LAPACK routine that inverts a matrix from its Cholesky factor and the
# BLAS symmetric matvec that applies the inverse, looked up once. Calling them
# directly skips scipy's per-call lookup and argument checks; the finiteness
# checks in _pcg cover what check_finite would have scanned.
_potri = get_lapack_funcs("potri", dtype=np.float64)
_symv = get_blas_funcs("symv", dtype=np.float64)


def _spd_inverse(a: np.ndarray, ridge: float) -> np.ndarray:
    """The inverse of the symmetric a + ridge*I (written into ``a``), from
    its Cholesky factor (``potri``): a Fortran-ordered array whose lower
    triangle holds the inverse and whose upper triangle is not read. Raises
    ``LinAlgError`` when the sum is not numerically positive definite or the
    ridge is lost to rounding (at most eps times a's largest diagonal entry),
    which would leave the sign of a pivot to roundoff."""
    if ridge <= np.finfo(np.float64).eps * a.diagonal().max():
        raise np.linalg.LinAlgError(f"ridge {ridge} is lost to rounding")
    a[np.diag_indices_from(a)] += ridge
    c, info = _potri(cho_factor(a, lower=True)[0], lower=1, overwrite_c=1)
    if info != 0:
        raise ValueError(f"internal potri failed with info={info}")
    return c


def _vector(r, what: str) -> np.ndarray:
    """``r`` as a float64 vector; anything else raises, naming its shape."""
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 1:
        raise ValueError(f"{what} takes a vector: r has shape {r.shape}")
    return r


@dataclass
class BlockPreconditioner:
    """The inverted per-feature-block subsampled curvature matrices of one
    build. Block b covers features ``offsets[b]:+sizes[b]`` and applies
    ``c[b]``, a Fortran-ordered array whose lower triangle alone is read,
    with one ``dsymv``. A Woodbury build holds ``x``, the d x k*tau stack of
    the k blocks' sparse d_b x tau slices X_b, block b in sample columns
    b*tau:(b+1)*tau, and c[b] = C_b; a dense build holds no stack (None) and
    c[b] = P_b^{-1}."""

    sizes: tuple
    offsets: tuple
    c: tuple
    x: SparseBlock | None
    mu: float

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    def apply_block(self, i: int, r: np.ndarray) -> np.ndarray:
        """Solve P_i s = r for block i alone: ``apply`` on r placed at the
        block's features in a zero vector, sliced back. No other block's
        entries reach the block's rows, so this has the bits of the block's
        own solve."""
        r = _vector(r, f"block {i} solve")
        if not 0 <= i < len(self.c):
            raise ValueError(f"block index {i} is outside 0..{len(self.c) - 1}")
        if r.shape[0] != self.sizes[i]:
            raise ValueError(f"block {i} solve: vector has length {r.shape[0]}, block is {self.sizes[i]}")
        rows = slice(self.offsets[i], self.offsets[i] + self.sizes[i])
        padded = np.zeros(self.dim)
        padded[rows] = r
        return self.apply(padded)[rows]

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Solve P s = r with the stored inverses: a Woodbury build through
        one product with ``x``'s transpose (its cached ``matrix_t``), one
        ``dsymv`` per block and one product with ``x``,
        (r - X_b C_b X_b' r) / mu for every block at once; a dense
        build through one ``dsymv`` per block. Every row of a stack holds one
        block's entries in that block's order, so each block's part of the
        result has the bits of its own solve."""
        r = _vector(r, "P solve")
        if r.shape[0] != self.dim:
            raise ValueError(f"P solve: vector has length {r.shape[0]}, P is {self.dim}x{self.dim}")
        if self.x is None:
            out = np.empty_like(r)
            for c, off, size in zip(self.c, self.offsets, self.sizes):
                out[off:off + size] = _symv(1.0, c, r[off:off + size], lower=1)
            return out
        q = matvec(self.x.matrix_t, r).reshape(len(self.c), -1)
        z = np.concatenate([_symv(1.0, c, q_b, lower=1) for c, q_b in zip(self.c, q)])
        return (r - matvec(self.x.matrix, z)) / self.mu


class _KeptSlices(NamedTuple):
    """What a partition keeps of X's first tau columns, cut into the feature
    blocks at ``offsets``/``sizes``. A Woodbury cut (tau below every block's
    size) keeps each block's dense tau x tau Gram X_b'X_b in ``arrays``, which
    no curvature changes, and the stack ``x`` that ``BlockPreconditioner.apply``
    reads; a dense cut keeps each block's dense d_b x tau slice and no stack
    (None)."""

    sizes: tuple
    offsets: tuple
    arrays: tuple
    x: SparseBlock | None


def _curvature_slices(part: SamplePartition | FeaturePartition, tau: int) -> _KeptSlices:
    """X's first tau columns cut into ``balanced_sizes(d, min(d, m))``
    feature blocks (none empty when m > d), the feature layout's split in
    both layouts. The first call for a partition and tau cuts and keeps them
    in ``part.cache``, so that a rebuild slices nothing."""
    key = ("curvature_slices", tau)
    if key not in part.cache:
        sizes = tuple(balanced_sizes(part.d, min(part.d, len(part.sizes))))
        offsets = tuple(sum(sizes[:b]) for b in range(len(sizes)))
        first = part.X.matrix[:, :tau]
        if tau < min(sizes):
            # Rows b*tau:(b+1)*tau of x's transpose hold block b's slice alone,
            # so their product with x is X_b'X_b in columns b*tau:(b+1)*tau.
            x = SparseBlock(stack_row_blocks(first, offsets))
            grams = tuple((x.matrix_t[c:c + tau] @ x.matrix)[:, c:c + tau].toarray()
                          for c in range(0, x.cols, tau))
            part.cache[key] = _KeptSlices(sizes, offsets, grams, x)
        else:
            slices = (first[off:off + size].toarray() for off, size in zip(offsets, sizes))
            part.cache[key] = _KeptSlices(sizes, offsets, tuple(slices), None)
    return part.cache[key]


def _invert_blocks(kept: _KeptSlices, h_tau: np.ndarray, mu: float) -> BlockPreconditioner:
    """Invert every block of a kept cut at the curvature ``h_tau`` of its
    tau samples: a Woodbury cut through K = diag(s) X_b'X_b diag(s) +
    mu*tau*I, s = sqrt(h), an O(tau^2) scaling of the kept Gram and one
    O(tau^3) inverse, kept as C_b = diag(s) K^{-1} diag(s); a dense cut
    through P_b^{-1}. mu > 0 makes every matrix positive definite; one that
    rounding leaves singular or indefinite (mu far below the curvature's
    scale) raises an error naming mu."""
    tau = len(h_tau)
    s = np.sqrt(h_tau)
    inverses = []
    for b, a in enumerate(kept.arrays):
        try:
            if kept.x is None:
                c = _spd_inverse((a * h_tau) @ a.T / tau, mu)
            else:
                c = _spd_inverse((s[:, None] * a) * s, mu * tau)
                c *= s[:, None]
                c *= s
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"preconditioner block {b} is not positive definite; increase mu (currently mu={mu})"
            ) from exc
        inverses.append(c)
    return BlockPreconditioner(kept.sizes, kept.offsets, tuple(inverses), kept.x, mu)


def _block_preconditioner(config: SolverConfig, part: SamplePartition | FeaturePartition, tau: int,
                          margins: np.ndarray | None) -> BlockPreconditioner:
    """Invert each feature block of X's first tau columns with the curvature
    of the first tau ``margins`` and labels."""
    config.validate()
    h_tau = hess_coeffs(config.loss, None if margins is None else margins[:tau], part.y[:tau])
    return _invert_blocks(_curvature_slices(part, tau), h_tau, config.mu)


def build_preconditioner(
    config: SolverConfig,
    spart: SamplePartition,
    margins: np.ndarray | None = None,
) -> BlockPreconditioner:
    """Master-side build for the sample layout: the first tau samples, all
    on the master (node 0), feed the estimate, cut into the feature blocks
    that the feature layout's nodes hold, so that both layouts build the same
    preconditioner. ``margins`` are as for ``build_preconditioner_features``;
    the first tau of them lie on the master.
    """
    return _block_preconditioner(config, spart, config.resolved_tau(spart.sizes[0]), margins)


def build_preconditioner_features(
    config: SolverConfig,
    fpart: FeaturePartition,
    margins: np.ndarray | None = None,
) -> BlockPreconditioner:
    """Feature-layout build: node i inverts its own block from the first tau
    columns of its feature rows. ``margins`` are the length-n sample margins
    X'w of the current iterate (any value, or None, for the square loss)."""
    tau = config.resolved_tau(fpart.n, balanced_sizes(fpart.n, len(fpart.sizes))[0])
    return _block_preconditioner(config, fpart, tau, margins)


# ---------------------------------------------------------------------------
# Data layouts
# ---------------------------------------------------------------------------


class _Split(NamedTuple):
    """The operands of one split's per-node partial products: node i holds
    part ``nodes[i]`` of a vector and ``blocks[i]``, its rows of the split
    matrix, multiplied transposed, or their ``stack`` (None when every block
    is no taller than wide); or, in place of both, ``cut``, every row of the
    other layout's split matrix cut at the nodes' offsets (``cut_rows``),
    multiplied forward."""

    nodes: tuple
    blocks: tuple
    stack: SparseBlock | None
    cut: SparseBlock | None = None


def _node_slices(offsets, sizes) -> tuple:
    return tuple(slice(off, off + size) for off, size in zip(offsets, sizes))


def _row_blocks(split, sizes) -> _Split:
    """The row blocks of the CSR matrix ``split`` (views, no copy), and
    their stack when one is taller than wide."""
    offsets, blocks, stack = split_rows(split, sizes)
    return _Split(_node_slices(offsets, sizes), blocks, stack)


def _cut(matrix, sizes) -> _Split:
    """Every row of the CSR ``matrix`` cut where the split of its columns
    into ``sizes`` puts a node boundary: a new row pointer over its data and
    indices."""
    offsets = tuple(sum(sizes[:i]) for i in range(len(sizes)))
    return _Split(_node_slices(offsets, sizes), (), None, SparseBlock(cut_rows(matrix, offsets)))


def _partials(v: np.ndarray, split: _Split):
    """Node i's partial product with ``v[nodes[i]]``, in node order. When
    every block is no taller than wide, node i's is computed from its own
    block only when asked for, so that a sum adds each while it is still in
    cache; otherwise node i's is row i of one product with the stack (or
    column i of one with the cut), whose every row holds one node's terms in
    that node's order, so each has the bits of its own product."""
    if split.cut is not None:
        return spmv(split.cut, v).reshape(-1, len(split.nodes)).T
    if split.stack is not None:
        return spmv_transpose(split.stack, v).reshape(len(split.nodes), -1)
    return (spmv_transpose(block, v[node]) for block, node in zip(split.blocks, split.nodes))


def _node_sum(parts) -> np.ndarray:
    """(p0 + p1) + p2 ..., the sum that ``Cluster.reduce_all`` forms, for a
    sum that no collective meters."""
    parts = iter(parts)
    total = next(parts)
    for p in parts:
        total = total + p
    return total


def _dot_terms(pairs, node: slice) -> np.ndarray:
    """One node's terms <a[node], b[node]> of each pair."""
    return np.array([float(np.dot(a[node], b[node])) for a, b in pairs])


class _Layout:
    """The per-node work and the collectives of one data layout; node i
    holds ``nodes[i]`` of the split dimension. ``config`` is validated here,
    and subclasses check that tau fits the samples their preconditioner
    draws from. A subclass's ``_product(u, coeffs)`` returns
    (X c)/n + lam*u, c = coeffs(X'u), and the length-n X'u, where ``coeffs``
    maps margins elementwise: the partial products of ``split``, the
    partition's, reduced over the nodes, and the other product.

    For the square loss, ``mirror`` is the other layout's split (into
    min(size, m) parts, so that it exists at any m), over which the layout
    forms, unmetered, the sums the other layout meters, in node order, so
    that both layouts round alike; for the logistic loss it is None."""

    def __init__(self, cluster: Cluster, part, config: SolverConfig):
        config.validate()
        if cluster.m != len(part.sizes):
            raise ValueError(f"cluster has {cluster.m} nodes, partition has {len(part.sizes)} shards")
        self.cluster, self.part, self.config = cluster, part, config
        self.nodes = _node_slices(part.offsets, part.sizes)
        self.split = _Split(self.nodes, part.blocks, part.stack)
        self.mirror = None
        if config.loss is LossKind.SQUARE:
            if "mirror" not in part.cache:
                part.cache["mirror"] = self._mirror()
            self.mirror = part.cache["mirror"]

    def curvature(self, margins: np.ndarray | None) -> np.ndarray:
        """Hessian coefficients of the margins (any value, or None, for the
        square loss); local work."""
        return hess_coeffs(self.config.loss, margins, self.part.y)

    def gradient(self, w: np.ndarray) -> tuple:
        """One metered exchange; returns the gradient and the margins X'w."""
        loss, y = self.config.loss, self.part.y
        return self._product(w, lambda z: grad_coeffs(loss, z, y))

    def hess_vec(self, u: np.ndarray, h: np.ndarray) -> np.ndarray:
        """One metered Hu."""
        return self._product(u, lambda z: h * z)[0]


class _SampleLayout(_Layout):
    """Sample partition: the master holds every solver vector whole."""

    def __init__(self, cluster: Cluster, part: SamplePartition, config: SolverConfig):
        super().__init__(cluster, part, config)
        config.resolved_tau(part.sizes[0])

    def _mirror(self) -> _Split:
        """The feature split: X's row blocks when none is taller than wide;
        otherwise X is taller than wide, and the cut of X', the CSR copy
        that the partition's blocks view, at the feature offsets."""
        part = self.part
        sizes = balanced_sizes(part.d, min(part.d, len(part.sizes)))
        if sizes[0] <= part.n:
            return _row_blocks(part.X.matrix, sizes)
        return _cut(part.X.matrix_t, sizes)

    def dots(self, *pairs, metered: bool = True) -> list:
        """<a, b> for each pair; free either way, the master holds both. With
        a mirror, each is summed over the feature split as the feature
        layout's reduce_all sums it."""
        if self.mirror is None:
            return [float(np.dot(a, b)) for a, b in pairs]
        return [float(x) for x in _node_sum(_dot_terms(pairs, node) for node in self.mirror.nodes)]

    def _product(self, u: np.ndarray, coeffs) -> tuple:
        """Broadcast u; node j forms its slice of X'u (with a mirror, summed
        over the feature split) and its data term X_j c_j / n, the partial
        product of its rows of X', and the data terms are reduce-alled."""
        cluster, part = self.cluster, self.part
        u_all = cluster.broadcast(u)
        if self.mirror is None:
            z = spmv_transpose(part.X, u_all)
        else:
            z = _node_sum(_partials(u_all, self.mirror))
        return cluster.reduce_all(p / part.n for p in _partials(coeffs(z), self.split)) + self.config.lam * u_all, z

    def assemble(self, v: np.ndarray) -> np.ndarray:
        return v

    def preconditioner(self, margins: np.ndarray) -> BlockPreconditioner:
        return build_preconditioner(self.config, self.part, margins)

    def newton_step(self, eps_k, grad, margins, precond, start=None) -> NewtonStepResult:
        return pcg_samples(self.cluster, self.part, eps_k, self.config, grad=grad, margins=margins, precond=precond,
                           start=start)


class _FeatureLayout(_Layout):
    """Feature partition: node i holds and works on its slice ``x[nodes[i]]``
    of every solver vector, and every node holds each sample-space vector
    whole."""

    def __init__(self, cluster: Cluster, part: FeaturePartition, config: SolverConfig):
        super().__init__(cluster, part, config)
        config.resolved_tau(part.n)

    def _mirror(self) -> _Split:
        """The sample split: when X is taller than wide, the row blocks of
        X' (no taller than wide), over the CSR copy of X' that products with
        X run over; otherwise the cut of X at the sample offsets (a copy of
        X' would be needed for its blocks)."""
        X = self.part.X
        sizes = balanced_sizes(X.cols, min(X.cols, len(self.part.sizes)))
        if X.rows > X.cols:
            return _row_blocks(X.matrix_t, sizes)
        return _cut(X.matrix, sizes)

    def dots(self, *pairs, metered: bool = True) -> list:
        """Global <a, b> for each pair: per-node slice terms, all riding one
        scalar reduce_all. With ``metered=False`` the per-node terms are summed
        as the collective sums them, without one: a control scalar that stands
        in for a piggybacked value and is deliberately not counted as a
        round."""

        def terms(i):
            return _dot_terms(pairs, self.nodes[i])

        if metered:
            total = self.cluster.reduce_all(self.cluster.map_nodes(terms))
        else:
            total = _node_sum(map(terms, range(self.cluster.m)))
        return [float(x) for x in total]

    def _product(self, u: np.ndarray, coeffs) -> tuple:
        """One length-n reduce_all of the partial products X_i'u_i, then
        each node's slice of X c / n + lam*u (with a mirror, summed over the
        sample split, each part divided by n, as the sample layout's
        reduce_all sums it)."""
        part = self.part
        z = self.cluster.reduce_all(_partials(u, self.split))
        c = coeffs(z)
        if self.mirror is None:
            data = spmv(part.X, c) / part.n
        else:
            data = _node_sum(p / part.n for p in _partials(c, self.mirror))
        return data + self.config.lam * u, z

    def assemble(self, v: np.ndarray) -> np.ndarray:
        return self.cluster.reduce_concat([v[node] for node in self.nodes])

    def preconditioner(self, margins: np.ndarray) -> BlockPreconditioner:
        return build_preconditioner_features(self.config, self.part, margins)

    def newton_step(self, eps_k, grad, margins, precond, start=None) -> NewtonStepResult:
        return pcg_features(self.cluster, self.part, eps_k, self.config, grad=grad, margins=margins, precond=precond,
                            start=start)


# ---------------------------------------------------------------------------
# Inner solver
# ---------------------------------------------------------------------------


def _pcg(layout: _Layout, eps_k: float, grad: np.ndarray, margins, precond: BlockPreconditioner,
         start: PcgState | None) -> NewtonStepResult:
    """PCG on H v = grad, where H is the Hessian at the iterate for which
    ``layout.gradient`` returned ``grad`` and ``margins``, from v = 0, or,
    given ``start``, continuing that run from its state (the square loss
    only: H must be the one it ran on). Every dot product goes through
    ``layout.dots``, batched so that the feature layout pays two scalar
    rounds per iteration.
    """
    if not eps_k > 0:  # also catches a NaN
        raise ValueError(f"eps_k must be positive, got {eps_k}")
    d = layout.part.d
    if start is None:
        start = PcgState(np.zeros(d), np.zeros(d), np.asarray(grad, dtype=np.float64), None, None, 0.0)
    elif layout.config.loss is not LossKind.SQUARE:
        raise ValueError("only a square-loss PCG run continues: the logistic Hessian changes with the iterate")
    elif start.v.shape != (d,):
        raise ValueError(f"the start's v has shape {start.v.shape}, the problem has d = {d}")
    h = layout.curvature(margins)
    max_inner = layout.config.resolved_max_inner(d)

    v, Hv, r, s, u = start.v, start.Hv, start.r, start.s, start.u
    # Driver-side control scalar; the metered path learns ||r|| from the
    # first beta batch below.
    resnorm = math.sqrt(layout.dots((r, r), metered=False)[0])
    if resnorm <= eps_k:  # v is the zero vector, or a continued one the master already holds
        return NewtonStepResult(v, start.delta, 0, resnorm, True, start)
    if s is None:
        s = precond.apply(r)
        u = s
    for t in range(max_inner):
        Hu = layout.hess_vec(u, h)
        if t == 0:  # <r, s> is first needed here; later it comes from the beta batch
            uHu, rs = layout.dots((u, Hu), (r, s))
        else:
            (uHu,) = layout.dots((u, Hu))
        if not uHu > 0:  # also catches a NaN
            raise RuntimeError(f"PCG breakdown at inner iteration {t}: u'Hu = {uHu} is not positive")
        alpha = rs / uHu
        v = v + alpha * u
        Hv = Hv + alpha * Hu
        r = r - alpha * Hu
        s = precond.apply(r)
        rs_next, rnorm2, vHv = layout.dots((r, s), (r, r), (v, Hv))
        # The block solves skip scipy's per-call finiteness scan; a NaN or
        # infinity in r or s surfaces in these scalars instead.
        if not all(map(math.isfinite, (rs_next, rnorm2, vHv))):
            raise FloatingPointError(
                f"non-finite PCG state at inner iteration {t}: r's = {rs_next}, ||r||^2 = {rnorm2}, v'Hv = {vHv}"
            )
        resnorm = math.sqrt(max(rnorm2, 0.0))
        beta = rs_next / rs
        u = s + beta * u  # the next search direction, where a continued run starts
        rs = rs_next
        if resnorm <= eps_k:
            break
    delta = math.sqrt(max(vHv, 0.0))
    return NewtonStepResult(
        direction=layout.assemble(v),
        delta=delta,
        inner_iters=t + 1,
        residual_norm=resnorm,
        converged=resnorm <= eps_k,
        state=PcgState(v, Hv, r, s, u, delta),
    )


def pcg_samples(
    cluster: Cluster,
    spart: SamplePartition,
    eps_k: float,
    config: SolverConfig,
    *,
    grad: np.ndarray,
    margins: np.ndarray,
    precond: BlockPreconditioner,
    start: PcgState | None = None,
) -> NewtonStepResult:
    """PCG on the sample partition; the master owns all full-length vectors.

    Both PCG entry points take ``grad``, the length-d gradient, ``margins``,
    the length-n X'w that the outer loop's gradient exchange leaves, and
    ``precond`` from the layout's builder, and, for the square loss only, an
    optional ``start``: the ``PcgState`` to continue from, which the outer
    loop makes from the previous step's with v, Hv and delta scaled by
    delta/(1 + delta); ``grad`` is then unused. Per inner iteration: one broadcast
    of the search direction and one reduce_all of the Hessian-product
    contributions, both of length d; dot products are free on the master.
    """
    return _pcg(_SampleLayout(cluster, spart, config), eps_k, grad, margins, precond, start)


def pcg_features(
    cluster: Cluster,
    fpart: FeaturePartition,
    eps_k: float,
    config: SolverConfig,
    *,
    grad: np.ndarray,
    margins: np.ndarray,
    precond: BlockPreconditioner,
    start: PcgState | None = None,
) -> NewtonStepResult:
    """PCG on the feature partition: a vector is one length-d array and node
    i works on its slice, its feature block.

    The arguments are those of ``pcg_samples``; every node holds the
    margins. Per inner iteration: one length-n reduce_all (for Hu), one
    scalar reduce_all for the u'Hu curvature term (widened to carry r's
    at t=0, the only iteration where it is not already known from the
    previous beta round), and one scalar reduce_all carrying (r's, ||r||^2,
    v'Hv) -- the beta numerator, the stopping test and the damping
    certificate ride one round. A step that runs at least one inner iteration
    ends with a concatenating reduce that assembles the direction on the
    master. A step whose starting residual already meets ``eps_k`` runs 0
    iterations and sends nothing: from v = 0 (the gradient; the outer loop's
    theta < 1 rules that out) it returns the zero direction; continuing a
    square-loss run (``start``), it returns the start's v and delta, which
    the master already holds, as the outer loop does whenever one step's run
    overshoots the next step's tolerance.
    """
    return _pcg(_FeatureLayout(cluster, fpart, config), eps_k, grad, margins, precond, start)


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def damped_update(w: np.ndarray, direction: np.ndarray, delta: float) -> np.ndarray:
    """w - direction / (1 + delta), applied as a multiply by the reciprocal."""
    return w - (1.0 / (1.0 + delta)) * direction


def disco_outer(cluster: Cluster, dataset, config: SolverConfig) -> DiscoResult:
    """Run the damped inexact-Newton loop on ``dataset`` over ``cluster``.

    Partitions the data per ``config.partition_mode``, starts from w = 0 and
    iterates until the gradient norm drops to ``outer_tol`` or ``max_outer``
    updates have been applied. Each outer iteration evaluates the gradient
    (metered), records a trace row, then runs the layout's PCG solver with
    eps_k = theta * ||grad||. The logistic loss requires labels in {-1, +1}.

    Control scalars (the gradient norm used for the stopping test and
    eps_k) are aggregated by the driver; in the feature layout this stands in
    for a piggybacked scalar and is deliberately not metered as a round.
    """
    if config.partition_mode == PartitionMode.SAMPLES:  # the layout validates config.partition_mode
        layout = _SampleLayout(cluster, partition_by_samples(dataset.X, dataset.y, cluster.m), config)
    else:
        layout = _FeatureLayout(cluster, partition_by_features(dataset.X, dataset.y, cluster.m), config)

    w = np.zeros(layout.part.d)
    precond: BlockPreconditioner | None = None
    start: PcgState | None = None
    trace: list = []
    inner_cum = 0
    inner_unconverged = 0
    began = time.perf_counter()

    for k in range(config.max_outer + 1):
        grad, margins = layout.gradient(w)
        gnorm = math.sqrt(layout.dots((grad, grad), metered=False)[0])
        if not math.isfinite(gnorm):
            raise FloatingPointError(
                f"non-finite gradient at outer iteration {k}; iterate head: {w[:8]}"
            )
        stats = cluster.snapshot_stats()
        trace.append(
            TraceRecord(
                outer_iter=k,
                grad_norm=gnorm,
                inner_iters_cum=inner_cum,
                rounds_cum=stats.total_rounds,
                bytes_cum=stats.total_bytes,
                wall_ms=(time.perf_counter() - began) * 1e3,
            )
        )
        if gnorm <= config.outer_tol or k == config.max_outer:
            break
        eps_k = config.theta * gnorm
        if precond is None or config.loss is LossKind.LOGISTIC:
            precond = layout.preconditioner(margins)
        step = layout.newton_step(eps_k, grad, margins, precond, start)
        w = damped_update(w, step.direction, step.delta)
        if config.loss is LossKind.SQUARE:
            # H is constant, so g_{k+1} - c*Hv_k = r_k for c = delta/(1+delta):
            # the next step continues this run from c*v_k.
            start = step.state.scaled(step.delta / (1.0 + step.delta))
        inner_cum += step.inner_iters
        inner_unconverged += not step.converged

    return DiscoResult(
        w=w,
        trace=trace,
        converged=trace[-1].grad_norm <= config.outer_tol,
        inner_iters_total=inner_cum,
        inner_unconverged=inner_unconverged,
    )
