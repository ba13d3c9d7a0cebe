"""Damped inexact-Newton outer loop: one PCG recurrence, two data layouts.

The outer loop repeats: evaluate the gradient, solve the Newton system
H v = grad approximately with preconditioned conjugate gradient, then apply
the damped update w <- w - v / (1 + delta) with delta = sqrt(v'Hv). The inner
tolerance follows the relative rule eps_k = theta * ||grad||, 0 < theta < 1.

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

Node-local work runs as one kernel call over all nodes, not one call per
node: each product multiplies the partition's unsplit X once and its
block-diagonal stack of shards once, whose every row holds one node's
terms, and reshapes the stacked result into the m per-node contributions
that the collective receives, so the collectives, their rounds and their
bytes are those of a per-node run. The preconditioner applies its low-rank
blocks the same way, over stacks of their slices.

Both layouts use the same preconditioner: a feature-block-diagonal curvature
matrix estimated from the first tau samples,

    P_b = (1/tau) * sum_{j<tau} h_j x_j^(b) (x_j^(b))' + mu * I

per feature block b, inverted once per build. DiSCO takes mu > 0, and so
does ``SolverConfig``, so every P_b is positive definite. Each block inverts
the smaller of two matrices from its Cholesky factor (LAPACK ``potri``) and
applies the inverse with one BLAS symmetric matvec (``dsymv``):

* tau < d_b: P_b is mu*I plus a rank-tau term; the block keeps its sparse
  d_b x tau slice X_b and C = diag(s) K^{-1} diag(s), s = sqrt(h),
  K = mu*tau*I + diag(s) X_b'X_b diag(s), and solves by the Woodbury
  identity, (r - X_b C X_b' r) / mu;
* tau >= d_b: the block keeps the inverse of the dense d_b x d_b P_b, the
  smaller matrix (on a 12-feature test problem at m <= 4 the layouts'
  iterates drift apart by up to 2e-7 relative through Woodbury, by 4e-10
  through the dense inverse).

The O(size^3) inverse, once per build, pays back over the PCG solve that
follows: a build runs once per solve for the square loss and at every Newton
step for the logistic loss. A partition's first build slices each block's
first tau samples and keeps in the partition's ``cache`` what every later
build reads: for a low-rank block the sparse slice X_b, its transpose and
their dense tau x tau Gram X_b'X_b (one sparse product per block per solve);
for a dense block the dense d_b x tau slice; and the block-diagonal stacks
of the low-rank slices and of their transposes. Only the sqrt(h) scaling
depends on the iterate, so a logistic rebuild at every Newton step slices
nothing and creates no sparse matrix: a low-rank block scales the kept Gram
by sqrt(h) on both sides, an O(tau^2) pass, adds mu*tau*I and inverts it; a
dense block forms and inverts its d_b x d_b Gram. The price is one extra
tau x tau array per low-rank block for the life of the partition, 8 MB per
block at the default tau = 1000. With identical preconditioners the two layouts produce
the same iterates up to roundoff, so layout only changes communication cost,
not the optimization path.

Every Hessian product multiplies transposed (``spmv_transpose``: X in the
sample layout, the stack in the feature layout) and then forward (``spmv``:
the stack, or X), both looping over the operand's shorter side: an operand
with more rows than columns multiplies through a CSR copy of its transpose
built on its first product and through the CSC view of that copy; one with
no more rows than columns through its CSR matrix and its CSC view. Both
kernels add each output element's terms in ascending index order, starting
from 0.0, so each node's part of a stacked product has the bits of a
per-node product.

A solve is described once: the partition gives the data, n and the feature
block split, ``SolverConfig`` the loss, lam and every solver parameter; a
layout validates the config, and that tau fits the data, when it is built.
Each PCG solve is handed what the outer loop already holds: the gradient and
margins from its metered exchange, and the preconditioner.

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
from scipy import sparse
from scipy.linalg import cho_factor
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .comm import Cluster
from .linalg import block_diagonal, matvec, spmv, spmv_transpose
from .losses import Choice, LossKind, grad_coeffs, hess_coeffs
from .partition import (
    FeaturePartition,
    SamplePartition,
    balanced_sizes,
    partition_by_features,
    partition_by_samples,
)

__all__ = [
    "PartitionMode",
    "SolverConfig",
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


@dataclass
class NewtonStepResult:
    """Inexact Newton direction and its damping certificate."""

    direction: np.ndarray
    delta: float
    inner_iters: int
    residual_norm: float
    converged: bool


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


class _DenseBlock(NamedTuple):
    """The d_b x d_b block P_b held as its inverse ``c`` (see
    ``_spd_inverse``), so a solve is one BLAS ``dsymv`` on c's lower
    triangle."""

    c: np.ndarray

    def solve(self, r: np.ndarray) -> np.ndarray:
        return _symv(1.0, self.c, r, lower=1)


class _LowRankBlock(NamedTuple):
    """P_b = mu*I + (1/tau) U U' with U = X_b S, S = diag(s), s = sqrt(h),
    solved by the Woodbury identity through the tau x tau matrix
    K = mu*tau*I + S X_b'X_b S, inverted once with S folded in on both
    sides, C = S K^{-1} S:

        P_b^{-1} r = (r - X_b C X_b' r) / mu.

    The block holds the unscaled sparse d_b x tau slice ``x`` and its
    transpose ``xt`` (both CSR, kept by the partition) and C, a
    Fortran-ordered tau x tau array of which only the lower triangle is
    read, so a solve costs O(nnz_b + tau^2): two calls of the compiled CSR
    kernel (``linalg.matvec``) and one BLAS ``dsymv`` that reads C in
    place."""

    x: sparse.csr_array
    xt: sparse.csr_array
    c: np.ndarray
    mu: float

    def solve(self, r: np.ndarray) -> np.ndarray:
        return (r - matvec(self.x, _symv(1.0, self.c, matvec(self.xt, r), lower=1))) / self.mu


def _vector(r, what: str) -> np.ndarray:
    """``r`` as a float64 vector; anything else raises, naming its shape."""
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 1:
        raise ValueError(f"{what} takes a vector: r has shape {r.shape}")
    return r


@dataclass
class BlockPreconditioner:
    """Inverted per-feature-block subsampled curvature matrices, one
    ``_DenseBlock`` or ``_LowRankBlock`` per block. ``x`` (d x k*tau) and
    ``xt`` (k*tau x d) stack the sparse slices of the k low-rank blocks, in
    block order, block-diagonally at each block's feature offset (None when
    no block is low-rank), so that ``apply`` runs each of the Woodbury
    products once for all blocks."""

    blocks: tuple
    sizes: tuple
    offsets: tuple
    x: sparse.csr_array | None
    xt: sparse.csr_array | None

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    def apply_block(self, i: int, r: np.ndarray) -> np.ndarray:
        """Solve P_i s = r for block i alone."""
        r = _vector(r, f"block {i} solve")
        if not 0 <= i < len(self.blocks):
            raise ValueError(f"block index {i} is outside 0..{len(self.blocks) - 1}")
        if r.shape[0] != self.sizes[i]:
            raise ValueError(f"block {i} solve: vector has length {r.shape[0]}, block is {self.sizes[i]}")
        return self.blocks[i].solve(r)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Solve P s = r with the stored inverses: the low-rank blocks
        together, through one product with ``xt``, one ``dsymv`` per block
        and one product with ``x``, then each dense block through its own
        ``dsymv``. Every row of a stack holds one block's entries in that
        block's order, so each block's result has the bits of its own solve
        (``apply_block``)."""
        r = _vector(r, "P solve")
        if r.shape[0] != self.dim:
            raise ValueError(f"P solve: vector has length {r.shape[0]}, P is {self.dim}x{self.dim}")
        low_rank = [b for b in self.blocks if isinstance(b, _LowRankBlock)]
        if low_rank:
            q = matvec(self.xt, r).reshape(len(low_rank), -1)
            z = np.concatenate([_symv(1.0, b.c, q_b, lower=1) for b, q_b in zip(low_rank, q)])
            out = (r - matvec(self.x, z)) / low_rank[0].mu
        else:
            out = np.empty_like(r)
        for block, off, size in zip(self.blocks, self.offsets, self.sizes):
            if isinstance(block, _DenseBlock):
                out[off:off + size] = block.solve(r[off:off + size])
        return out


class _GramSlice(NamedTuple):
    """What every build reads of a low-rank block's (tau < d_b) first tau
    samples: the sparse d_b x tau slice ``x`` and its transpose ``xt``, both
    CSR with sorted indices, and their dense tau x tau Gram ``gram`` = x'x,
    which no curvature changes."""

    x: sparse.csr_array
    xt: sparse.csr_array
    gram: np.ndarray


def _kept_slice(block: sparse.csr_array):
    """What a partition keeps of one feature block's sparse first-tau-samples
    slice (d_b x tau): a ``_GramSlice`` when tau < d_b, else the dense slice."""
    d_b, tau = block.shape
    if tau < d_b:
        block_t = block.T.tocsr()
        return _GramSlice(block, block_t, (block_t @ block).toarray())
    return block.toarray()


def _factor_curvature_block(i: int, kept, h_tau: np.ndarray, mu: float):
    """Invert (1/tau) * Xb diag(h) Xb' + mu*I for one feature block from its
    kept slice (see ``_kept_slice``): a ``_GramSlice`` through the tau x tau
    Woodbury matrix K = diag(s) x'x diag(s) + mu*tau*I, s = sqrt(h), which
    costs an O(tau^2) scaling and one O(tau^3) inverse, kept as
    C = diag(s) K^{-1} diag(s); a dense slice through the inverse of the
    d_b x d_b P_b. mu > 0 makes both matrices positive definite; one that
    rounding leaves singular or indefinite (mu far below the curvature's
    scale) raises an error naming mu."""
    tau = len(h_tau)
    try:
        if isinstance(kept, _GramSlice):
            s = np.sqrt(h_tau)
            k = (s[:, None] * kept.gram) * s
            c = _spd_inverse(k, mu * tau)
            c *= s[:, None]
            c *= s
            return _LowRankBlock(kept.x, kept.xt, c, mu)
        gram = (kept * h_tau) @ kept.T / tau
        return _DenseBlock(_spd_inverse(gram, mu))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"preconditioner block {i} is not positive definite; "
            f"increase mu (currently mu={mu})"
        ) from exc


class _KeptSlices(NamedTuple):
    """What a partition keeps of its feature blocks' first tau samples: one
    ``_kept_slice`` per block, and the stacks ``x`` and ``xt`` of the
    low-rank blocks' sparse slices that ``BlockPreconditioner.apply`` reads
    (None when no block is low-rank)."""

    slices: tuple
    x: sparse.csr_array | None
    xt: sparse.csr_array | None


def _curvature_slices(part: SamplePartition | FeaturePartition, tau: int, cut, offsets) -> _KeptSlices:
    """The kept slices of the feature blocks' first tau samples, the blocks
    starting at feature ``offsets``: the first call for a partition and tau
    cuts the sparse slices with ``cut()``, stacks the low-rank ones and keeps
    all of it in ``part.cache``, so that a rebuild stacks nothing."""
    key = ("curvature_slices", tau)
    if key not in part.cache:
        slices = tuple(_kept_slice(b) for b in cut())
        low_rank = [(kept, off) for kept, off in zip(slices, offsets) if isinstance(kept, _GramSlice)]
        x = xt = None
        if low_rank:
            pieces, feature_offsets = zip(*low_rank)
            sample_offsets = [j * tau for j in range(len(low_rank))]
            width = len(low_rank) * tau
            x = block_diagonal([k.x for k in pieces], feature_offsets, sample_offsets, (part.d, width))
            xt = block_diagonal([k.xt for k in pieces], sample_offsets, feature_offsets, (width, part.d))
        part.cache[key] = _KeptSlices(slices, x, xt)
    return part.cache[key]


def _block_preconditioner(config: SolverConfig, part: SamplePartition | FeaturePartition, tau: int,
                          kept: _KeptSlices, margins: np.ndarray | None, sizes, offsets) -> BlockPreconditioner:
    """Invert each feature block from its kept first-tau-samples slice with
    the curvature of the first tau ``margins`` and labels."""
    config.validate()
    h_tau = hess_coeffs(config.loss, None if margins is None else margins[:tau], part.y[:tau])
    blocks = tuple(_factor_curvature_block(i, b, h_tau, config.mu) for i, b in enumerate(kept.slices))
    return BlockPreconditioner(blocks, tuple(sizes), tuple(offsets), kept.x, kept.xt)


def build_preconditioner(
    config: SolverConfig,
    spart: SamplePartition,
    margins: np.ndarray | None = None,
) -> BlockPreconditioner:
    """Master-side build for the sample layout.

    The first tau samples of the master's shard (node 0: all d features, its
    n_1 samples) feed the estimate, split into the m balanced feature blocks
    that the feature layout's nodes hold, so that both layouts build the same
    preconditioner (min(d, m) blocks, so that none is empty when m > d); the
    partition's first build slices them and keeps them. ``margins`` are as
    for ``build_preconditioner_features``; the first tau of them lie on the
    master.
    """
    shard = spart.shards[0]
    tau = config.resolved_tau(shard.cols)
    sizes = balanced_sizes(spart.d, min(spart.d, len(spart.shards)))
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]

    def cut():
        sub = shard.matrix[:, :tau]
        return [sub[off:off + size, :] for off, size in zip(offsets, sizes)]

    kept = _curvature_slices(spart, tau, cut, offsets)
    return _block_preconditioner(config, spart, tau, kept, margins, sizes, offsets)


def build_preconditioner_features(
    config: SolverConfig,
    fpart: FeaturePartition,
    margins: np.ndarray | None = None,
) -> BlockPreconditioner:
    """Feature-layout build: node i inverts its own block from the first tau
    columns of its feature slice, which the partition's first build slices
    and keeps. ``margins`` are the length-n sample margins X'w of the current
    iterate (any value, or None, for the square loss)."""
    tau = config.resolved_tau(fpart.n, balanced_sizes(fpart.n, len(fpart.shards))[0])
    kept = _curvature_slices(fpart, tau, lambda: [shard.matrix[:, :tau] for shard in fpart.shards], fpart.offsets)
    return _block_preconditioner(config, fpart, tau, kept, margins, fpart.sizes, fpart.offsets)


# ---------------------------------------------------------------------------
# Data layouts
# ---------------------------------------------------------------------------


class _Layout:
    """The per-node work and the collectives of one data layout. ``config``
    is validated here, and subclasses check that tau fits the samples their
    preconditioner draws from. A subclass's ``_product(u, coeffs)`` returns
    (X c)/n + lam*u, c = coeffs(X'u), and the length-n X'u, where
    ``coeffs`` maps margins elementwise. Node-local work runs as one kernel
    call over the partition's unsplit ``X`` or its ``stack`` of shards,
    whose every row holds one node's terms, so each node's part has the bits
    of a per-node call."""

    def __init__(self, cluster: Cluster, part, config: SolverConfig):
        config.validate()
        if cluster.m != len(part.shards):
            raise ValueError(f"cluster has {cluster.m} nodes, partition has {len(part.shards)} shards")
        self.cluster, self.part, self.config = cluster, part, config

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

    def dots(self, *pairs, metered: bool = True) -> list:
        """<a, b> for each pair; free either way, the master holds both."""
        return [float(np.dot(a, b)) for a, b in pairs]

    def _product(self, u: np.ndarray, coeffs) -> tuple:
        """Broadcast u; node j forms its slice of X'u and its data term
        X_j c_j / n (row block j of the stacked product), and the data terms
        are reduce-alled."""
        cluster, part = self.cluster, self.part
        u_all = cluster.broadcast(u)
        z = spmv_transpose(part.X, u_all)
        terms = (spmv(part.stack, coeffs(z)) / part.n).reshape(cluster.m, part.d)
        return cluster.reduce_all(list(terms)) + self.config.lam * u_all, z

    def assemble(self, v: np.ndarray) -> np.ndarray:
        return v

    def preconditioner(self, margins: np.ndarray) -> BlockPreconditioner:
        return build_preconditioner(self.config, self.part, margins)

    def newton_step(self, eps_k, grad, margins, precond) -> NewtonStepResult:
        return pcg_samples(self.cluster, self.part, eps_k, self.config, grad=grad, margins=margins, precond=precond)


class _FeatureLayout(_Layout):
    """Feature partition: node i holds and works on its slice ``x[nodes[i]]``
    of every solver vector, and every node holds each sample-space vector
    whole."""

    def __init__(self, cluster: Cluster, part: FeaturePartition, config: SolverConfig):
        super().__init__(cluster, part, config)
        config.resolved_tau(part.n)
        self.nodes = tuple(slice(off, off + size) for off, size in zip(part.offsets, part.sizes))

    def dots(self, *pairs, metered: bool = True) -> list:
        """Global <a, b> for each pair: per-node slice terms, all riding one
        scalar reduce_all. With ``metered=False`` the per-node terms are summed
        without a collective: a control scalar that stands in for a piggybacked
        value and is deliberately not counted as a round."""

        def local(i):
            node = self.nodes[i]
            return [float(np.dot(a[node], b[node])) for a, b in pairs]

        if not metered:
            return [sum(terms) for terms in zip(*map(local, range(self.cluster.m)))]
        return [float(x) for x in self.cluster.reduce_all(self.cluster.map_nodes(lambda i: np.array(local(i))))]

    def _product(self, u: np.ndarray, coeffs) -> tuple:
        """One length-n reduce_all of the partial products X_i'u_i (row i of
        the stacked product), then each node's slice of X c / n + lam*u."""
        cluster, part = self.cluster, self.part
        z = cluster.reduce_all(list(spmv_transpose(part.stack, u).reshape(cluster.m, part.n)))
        return spmv(part.X, coeffs(z)) / part.n + self.config.lam * u, z

    def assemble(self, v: np.ndarray) -> np.ndarray:
        return self.cluster.reduce_concat([v[node] for node in self.nodes])

    def preconditioner(self, margins: np.ndarray) -> BlockPreconditioner:
        return build_preconditioner_features(self.config, self.part, margins)

    def newton_step(self, eps_k, grad, margins, precond) -> NewtonStepResult:
        return pcg_features(self.cluster, self.part, eps_k, self.config, grad=grad, margins=margins, precond=precond)


# ---------------------------------------------------------------------------
# Inner solver
# ---------------------------------------------------------------------------


def _pcg(layout: _Layout, eps_k: float, grad: np.ndarray, margins, precond: BlockPreconditioner) -> NewtonStepResult:
    """PCG on H v = grad, where H is the Hessian at the iterate for which
    ``layout.gradient`` returned ``grad`` and ``margins``. Every dot product
    goes through ``layout.dots``, batched so that the feature layout pays two
    scalar rounds per iteration.
    """
    if not eps_k > 0:  # also catches a NaN
        raise ValueError(f"eps_k must be positive, got {eps_k}")
    h = layout.curvature(margins)
    d = layout.part.d
    max_inner = layout.config.resolved_max_inner(d)

    r = np.asarray(grad, dtype=np.float64)
    # Driver-side control scalar; the metered path learns ||r|| from the
    # first beta batch below.
    resnorm = math.sqrt(layout.dots((r, r), metered=False)[0])
    if resnorm <= eps_k:
        return NewtonStepResult(np.zeros(d), 0.0, 0, resnorm, True)
    s = precond.apply(r)
    u = s
    v = np.zeros(d)
    Hv = np.zeros(d)
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
        if resnorm <= eps_k:
            break
        beta = rs_next / rs
        u = s + beta * u
        rs = rs_next
    return NewtonStepResult(
        direction=layout.assemble(v),
        delta=math.sqrt(max(vHv, 0.0)),
        inner_iters=t + 1,
        residual_norm=resnorm,
        converged=resnorm <= eps_k,
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
) -> NewtonStepResult:
    """PCG on the sample partition; the master owns all full-length vectors.

    Both PCG entry points take ``grad``, the length-d gradient, ``margins``,
    the length-n X'w that the outer loop's gradient exchange leaves, and
    ``precond`` from the layout's builder. Per inner iteration: one broadcast
    of the search direction and one reduce_all of the Hessian-product
    contributions, both of length d; dot products are free on the master.
    """
    return _pcg(_SampleLayout(cluster, spart, config), eps_k, grad, margins, precond)


def pcg_features(
    cluster: Cluster,
    fpart: FeaturePartition,
    eps_k: float,
    config: SolverConfig,
    *,
    grad: np.ndarray,
    margins: np.ndarray,
    precond: BlockPreconditioner,
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
    master; when the gradient already meets ``eps_k`` (a loose tolerance; the
    outer loop's theta < 1 never allows it) the step returns the zero
    direction after 0 iterations and sends nothing.
    """
    return _pcg(_FeatureLayout(cluster, fpart, config), eps_k, grad, margins, precond)


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
    trace: list = []
    inner_cum = 0
    inner_unconverged = 0
    start = time.perf_counter()

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
                wall_ms=(time.perf_counter() - start) * 1e3,
            )
        )
        if gnorm <= config.outer_tol or k == config.max_outer:
            break
        eps_k = config.theta * gnorm
        if precond is None or config.loss is LossKind.LOGISTIC:
            precond = layout.preconditioner(margins)
        step = layout.newton_step(eps_k, grad, margins, precond)
        w = damped_update(w, step.direction, step.delta)
        inner_cum += step.inner_iters
        inner_unconverged += not step.converged

    return DiscoResult(
        w=w,
        trace=trace,
        converged=trace[-1].grad_norm <= config.outer_tol,
        inner_iters_total=inner_cum,
        inner_unconverged=inner_unconverged,
    )
