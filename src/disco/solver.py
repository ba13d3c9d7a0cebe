"""Damped inexact-Newton outer loop: one PCG recurrence, two data layouts.

The outer loop repeats: evaluate the gradient, solve the Newton system
H v = grad approximately with preconditioned conjugate gradient, then apply
the damped update w <- w - v / (1 + delta) with delta = sqrt(v'Hv). The inner
tolerance follows the relative rule eps_k = theta * ||grad||, 0 < theta < 1.

The recurrence, the preconditioner build and the outer loop are written once,
over a small layout object that says where vectors live and what combining
them costs:

* ``_SampleLayout``: each vector is one full-length block on the master, so
  dot products are free; each Hessian product broadcasts the search direction
  (R^d) and reduce-alls the per-node contributions (R^d).
* ``_FeatureLayout``: each vector is one coordinate block per node; each
  Hessian product costs one length-n reduce_all (the sample-space product
  X'u), the dot products ride two scalar reduce_alls per inner iteration
  (the first also carries the initial <r, s>; the second carries r's,
  ||r||^2 and v'Hv), and a step that ran any inner iteration ends with a
  concatenating reduce that assembles the direction on the master.

A broadcast or reduce_all returns the one read-only array that every node
then holds, so no layout keeps per-node replicas; PCG never writes into an
array it did not just allocate.

Both layouts use the same preconditioner: a feature-block-diagonal curvature
matrix estimated from the first tau samples,

    P_b = (1/tau) * sum_{j<tau} h_j x_j^(b) (x_j^(b))' + mu * I

per feature block b, factored once per build. Each block factors the smaller
of two Gram matrices: when mu > 0 and tau < d_b, P_b is mu*I plus a rank-tau
term, so the block keeps its sparse d_b x tau slice and the Cholesky factor
of a tau x tau matrix and solves by the Woodbury identity; otherwise it keeps
the Cholesky factor of the dense d_b x d_b P_b. With mu = 0 and tau < d_b the
estimate is singular and the build raises. A partition's first build slices
each block's first tau samples and keeps in the partition's ``cache`` what
every later build reads: for a low-rank block the sparse slice X_b, its
transpose and their dense tau x tau Gram X_b'X_b (one sparse product per
block per solve); for a dense block the dense d_b x tau slice. Only the
sqrt(h) scaling depends on the iterate, so a logistic rebuild at every Newton
step slices nothing and creates no sparse matrix: a low-rank block scales the
kept Gram by sqrt(h) on both sides, an O(tau^2) pass, adds mu*tau*I and
factors it; a dense block forms and factors its d_b x d_b Gram. The price is
one extra tau x tau array per low-rank block for the life of the partition,
8 MB per block at the default tau = 1000. With identical preconditioners the
two layouts produce the same iterates up to roundoff, so layout only changes
communication cost, not the optimization path.

Every Hessian product multiplies each shard transposed (``spmv_transpose``)
and then forward (``spmv``), both looping over the shard's shorter side: a
shard with more rows than columns, such as a d x n_j sample shard with
d > n_j, multiplies through a CSR copy of its transpose built on its first
product and through the CSC view of that copy; a shard with no more rows than
columns through its CSR matrix and its CSC view.

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
from scipy.linalg.lapack import get_lapack_funcs

from .comm import Cluster
from .linalg import matvec, spmv, spmv_transpose
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
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("tau", "max_inner", "max_outer"):
            value = getattr(self, name)
            optional = () if name == "max_outer" else (type(None),)  # None picks a default
            if isinstance(value, bool) or not isinstance(value, (int, np.integer, *optional)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.mu < 0:
            raise ValueError(f"mu must be non-negative, got {self.mu}")
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
    """Inexact Newton direction and its damping certificate.

    ``direction_blocks`` holds the direction as the layout stores it: one
    full-length block (samples) or one block per node (features)."""

    direction: np.ndarray
    delta: float
    inner_iters: int
    residual_norm: float
    converged: bool
    direction_blocks: list


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
    updates: int
    grad_evals: int
    inner_iters_total: int
    inner_unconverged: int


# ---------------------------------------------------------------------------
# Preconditioner
# ---------------------------------------------------------------------------


# The LAPACK routine behind scipy's cho_solve, looked up once. Calling it
# directly skips the wrapper's per-call lookup and argument checks; the
# finiteness checks in _pcg cover what check_finite would have scanned.
_potrs = get_lapack_funcs("potrs", dtype=np.float64)


def _cho_solve(cho: tuple, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given ``cho = cho_factor(A)``; b is left untouched."""
    if b.shape[0] == 0:  # an empty block (m > d in the sample layout); f2py rejects it
        return np.empty_like(b)
    c, lower = cho
    x, info = _potrs(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of internal potrs")
    return x


class _DenseBlock(NamedTuple):
    """Cholesky factor of the d_b x d_b block P_b."""

    cho: tuple

    def solve(self, r: np.ndarray) -> np.ndarray:
        return _cho_solve(self.cho, r)


class _LowRankBlock(NamedTuple):
    """P_b = mu*I + (1/tau) U U' with U = X_b S, S = diag(s), s = sqrt(h),
    solved by the Woodbury identity through the tau x tau matrix
    K = mu*tau*I + S X_b'X_b S:

        P_b^{-1} r = (r - X_b S K^{-1} S X_b' r) / mu.

    The block holds the unscaled sparse d_b x tau slice ``x`` and its
    transpose ``xt`` (both CSR, kept by the partition), s and the Cholesky
    factor of K, so a solve costs O(nnz_b + tau^2). Its two products call the
    compiled CSR kernel directly (``linalg.matvec``)."""

    x: sparse.csr_array
    xt: sparse.csr_array
    s: np.ndarray
    cho: tuple
    mu: float

    def solve(self, r: np.ndarray) -> np.ndarray:
        z = _cho_solve(self.cho, self.s * matvec(self.xt, r))
        return (r - matvec(self.x, self.s * z)) / self.mu


@dataclass
class BlockPreconditioner:
    """Factored per-feature-block subsampled curvature matrices, one
    ``_DenseBlock`` or ``_LowRankBlock`` per block."""

    blocks: tuple
    sizes: tuple
    offsets: tuple

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    def apply_block(self, i: int, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        if r.shape[0] != self.sizes[i]:
            raise ValueError(f"block {i} solve: vector has length {r.shape[0]}, block is {self.sizes[i]}")
        return self.blocks[i].solve(r)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Solve P s = r with the stored factorizations."""
        r = np.asarray(r, dtype=np.float64)
        if r.shape[0] != self.dim:
            raise ValueError(f"P solve: vector has length {r.shape[0]}, P is {self.dim}x{self.dim}")
        out = np.empty_like(r)
        for block, off, size in zip(self.blocks, self.offsets, self.sizes):
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
    """Factor (1/tau) * Xb diag(h) Xb' + mu*I for one feature block from its
    kept slice (see ``_kept_slice``): a ``_GramSlice`` through the tau x tau
    Woodbury matrix K = diag(s) x'x diag(s) + mu*tau*I, s = sqrt(h), which
    costs an O(tau^2) scaling and one Cholesky; a dense slice as a dense
    d_b x d_b Cholesky."""
    low_rank = isinstance(kept, _GramSlice)
    tau = len(h_tau)
    if low_rank and mu == 0:
        raise np.linalg.LinAlgError(
            f"preconditioner block {i} has rank at most tau={tau} < {kept.x.shape[0]} features "
            f"and is singular with mu=0; increase mu"
        )
    try:
        if low_rank:
            s = np.sqrt(h_tau)
            k = (s[:, None] * kept.gram) * s
            k[np.diag_indices_from(k)] += mu * tau
            return _LowRankBlock(kept.x, kept.xt, s, cho_factor(k, lower=True), mu)
        gram = (kept * h_tau) @ kept.T / tau
        gram[np.diag_indices_from(gram)] += mu
        return _DenseBlock(cho_factor(gram, lower=True))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"preconditioner block {i} is not positive definite; "
            f"increase mu (currently mu={mu})"
        ) from exc


def _curvature_slices(part: SamplePartition | FeaturePartition, tau: int, cut) -> tuple:
    """The kept slices (see ``_kept_slice``) of the feature blocks' first tau
    samples: the first call for a partition and tau cuts the sparse slices
    with ``cut()`` and keeps what the builds read in ``part.cache``."""
    key = ("curvature_slices", tau)
    if key not in part.cache:
        part.cache[key] = tuple(_kept_slice(b) for b in cut())
    return part.cache[key]


def _block_preconditioner(config: SolverConfig, tau: int, kept: tuple, labels: np.ndarray,
                          margins: np.ndarray | None, sizes, offsets) -> BlockPreconditioner:
    """Factor each feature block from its kept first-tau-samples slice with
    the curvature of the first tau ``margins`` and ``labels``."""
    config.validate()
    h_tau = hess_coeffs(config.loss, None if margins is None else margins[:tau], labels[:tau])
    blocks = tuple(_factor_curvature_block(i, b, h_tau, config.mu) for i, b in enumerate(kept))
    return BlockPreconditioner(blocks, tuple(sizes), tuple(offsets))


def build_preconditioner(
    config: SolverConfig,
    spart: SamplePartition,
    margins: np.ndarray | None = None,
) -> BlockPreconditioner:
    """Master-side build for the sample layout.

    The first tau samples of the master's shard (node 0: all d features, its
    n_1 samples) feed the estimate, split into the m balanced feature blocks
    that the feature layout's nodes hold, so that both layouts build the same
    preconditioner; the partition's first build slices them and keeps them.
    The logistic curvature reads ``margins``, the master's margins X_1'w of
    the current iterate (as the gradient exchange leaves them); the square
    loss needs none.
    """
    shard = spart.shards[0]
    tau = config.resolved_tau(shard.cols)
    sizes = balanced_sizes(spart.d, len(spart.shards))
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]

    def cut():
        sub = shard.matrix[:, :tau]
        return [sub[off:off + size, :] for off, size in zip(offsets, sizes)]

    blocks = _curvature_slices(spart, tau, cut)
    return _block_preconditioner(config, tau, blocks, spart.labels[0], margins, sizes, offsets)


def build_preconditioner_features(
    config: SolverConfig,
    fpart: FeaturePartition,
    margins: np.ndarray | None = None,
) -> BlockPreconditioner:
    """Feature-layout build: node i factors its own block from the first tau
    columns of its feature slice, which the partition's first build slices
    and keeps. ``margins`` are the shared sample margins X'w of the current
    iterate (any value, or None, for the square loss)."""
    tau = config.resolved_tau(fpart.n, balanced_sizes(fpart.n, len(fpart.shards))[0])
    blocks = _curvature_slices(fpart, tau, lambda: [shard.matrix[:, :tau] for shard in fpart.shards])
    return _block_preconditioner(config, tau, blocks, fpart.y, margins, fpart.sizes, fpart.offsets)


# ---------------------------------------------------------------------------
# Data layouts
# ---------------------------------------------------------------------------


class _Layout:
    """A vector is a list of blocks, block i of length ``sizes[i]``. The
    partition and ``config`` describe the whole problem; ``config`` is
    validated here, and subclasses set ``sizes`` and check that tau fits the
    samples their preconditioner draws from."""

    def __init__(self, cluster: Cluster, part, config: SolverConfig):
        config.validate()
        self.cluster, self.part, self.config = cluster, part, config

    def zeros(self) -> list:
        return self.map(lambda i: np.zeros(self.sizes[i]))


class _SampleLayout(_Layout):
    """Sample partition: each vector is one full-length block on the master."""

    def __init__(self, cluster: Cluster, part: SamplePartition, config: SolverConfig):
        super().__init__(cluster, part, config)
        self.sizes = (part.d,)
        config.resolved_tau(part.sizes[0])

    def map(self, fn) -> list:
        return [fn(0)]

    def dots(self, *pairs, metered: bool = True) -> list:
        """<a, b> for each pair; free either way, the master holds both."""
        return [float(np.dot(a[0], b[0])) for a, b in pairs]

    def curvature(self, margins: list) -> list:
        """Per-node Hessian coefficients from per-node margins; local work."""
        part, loss = self.part, self.config.loss
        return self.cluster.map_nodes(lambda j: hess_coeffs(loss, margins[j], part.labels[j]))

    def gradient(self, w: list) -> tuple:
        """Broadcast w, reduce-all the per-node data terms, add lam*w.
        Returns the gradient and the per-node margins."""
        cluster, part, config = self.cluster, self.part, self.config
        w_all = cluster.broadcast(w[0])

        def local_term(j):
            margins_j = spmv_transpose(part.shards[j], w_all)
            return margins_j, spmv(part.shards[j], grad_coeffs(config.loss, margins_j, part.labels[j])) / part.n

        node_margins, parts = zip(*cluster.map_nodes(local_term))
        return [cluster.reduce_all(list(parts)) + config.lam * w_all], list(node_margins)

    def hess_vec(self, u: list, h: list) -> list:
        """One metered Hu: broadcast u, reduce-all the data terms, add lam*u."""
        cluster, part = self.cluster, self.part
        u_all = cluster.broadcast(u[0])

        def local_term(j):
            z = spmv_transpose(part.shards[j], u_all)
            return spmv(part.shards[j], h[j] * z) / part.n

        return [cluster.reduce_all(cluster.map_nodes(local_term)) + self.config.lam * u_all]

    def precondition(self, precond: BlockPreconditioner, r: list) -> list:
        return [precond.apply(r[0])]

    def assemble(self, v: list) -> np.ndarray:
        return v[0]

    def preconditioner(self, margins: list) -> BlockPreconditioner:
        return build_preconditioner(self.config, self.part, margins[0])

    def newton_step(self, eps_k, grad, margins, precond) -> NewtonStepResult:
        return pcg_samples(self.cluster, self.part, eps_k, self.config, grad=grad[0], margins=margins, precond=precond)


class _FeatureLayout(_Layout):
    """Feature partition: each vector is one coordinate block per node. The
    sample margins X'w and the coefficients derived from them are one
    length-n array that every node holds."""

    def __init__(self, cluster: Cluster, part: FeaturePartition, config: SolverConfig):
        super().__init__(cluster, part, config)
        self.sizes = part.sizes
        config.resolved_tau(part.n)

    def map(self, fn) -> list:
        return self.cluster.map_nodes(fn)

    def dots(self, *pairs, metered: bool = True) -> list:
        """Global <a, b> for each pair, all riding one scalar reduce_all. With
        ``metered=False`` the driver sums the per-node terms instead: a control
        scalar that stands in for a piggybacked value and is deliberately not
        counted as a round."""
        m = self.cluster.m
        if not metered:
            return [sum(float(np.dot(a[i], b[i])) for i in range(m)) for a, b in pairs]
        local = self.cluster.map_nodes(lambda i: np.array([float(np.dot(a[i], b[i])) for a, b in pairs]))
        return [float(x) for x in self.cluster.reduce_all(local)]

    def curvature(self, margins: np.ndarray | None) -> np.ndarray:
        """Hessian coefficients of the shared margins (any value, or None, for
        the square loss); local work."""
        return hess_coeffs(self.config.loss, margins, self.part.y)

    def gradient(self, w: list) -> tuple:
        """Per-node gradient blocks from the shared margins X'w, which cost one
        length-n reduce_all of the per-node partial products. Returns blocks
        and margins."""
        cluster, part, lam = self.cluster, self.part, self.config.lam
        margins = cluster.reduce_all(cluster.map_nodes(lambda i: spmv_transpose(part.shards[i], w[i])))
        coeffs = grad_coeffs(self.config.loss, margins, part.y)
        return cluster.map_nodes(lambda i: spmv(part.shards[i], coeffs) / part.n + lam * w[i]), margins

    def hess_vec(self, u: list, h: np.ndarray) -> list:
        """One metered Hu: a single length-n reduce_all of the partial
        products X_i'u_i, then local block work."""
        cluster, part, lam = self.cluster, self.part, self.config.lam
        hz = h * cluster.reduce_all(cluster.map_nodes(lambda i: spmv_transpose(part.shards[i], u[i])))
        return cluster.map_nodes(lambda i: spmv(part.shards[i], hz) / part.n + lam * u[i])

    def precondition(self, precond: BlockPreconditioner, r: list) -> list:
        return self.cluster.map_nodes(lambda i: precond.apply_block(i, r[i]))

    def assemble(self, v: list) -> np.ndarray:
        return self.cluster.reduce_concat(v)

    def preconditioner(self, margins: np.ndarray) -> BlockPreconditioner:
        return build_preconditioner_features(self.config, self.part, margins)

    def newton_step(self, eps_k, grad, margins, precond) -> NewtonStepResult:
        return pcg_features(self.cluster, self.part, eps_k, self.config, grad_blocks=grad, margins=margins,
                            precond=precond)


# ---------------------------------------------------------------------------
# Inner solver
# ---------------------------------------------------------------------------


def _pcg(layout: _Layout, eps_k: float, grad: list, margins, precond: BlockPreconditioner) -> NewtonStepResult:
    """PCG on H v = grad, where H is the Hessian at the iterate for which
    ``layout.gradient`` returned ``grad`` and ``margins``. Every dot product
    goes through ``layout.dots``, batched so that the feature layout pays two
    scalar rounds per iteration.
    """
    if not eps_k > 0:  # also catches a NaN
        raise ValueError(f"eps_k must be positive, got {eps_k}")
    h = layout.curvature(margins)
    max_inner = layout.config.resolved_max_inner(layout.part.d)

    r = grad
    # Driver-side control scalar; the metered path learns ||r|| from the
    # first beta batch below.
    resnorm = math.sqrt(layout.dots((r, r), metered=False)[0])
    if resnorm <= eps_k:
        zero = layout.zeros()
        return NewtonStepResult(np.concatenate(zero), 0.0, 0, resnorm, True, zero)
    s = layout.precondition(precond, r)
    u = s
    v = layout.zeros()
    Hv = layout.zeros()
    for t in range(max_inner):
        Hu = layout.hess_vec(u, h)
        if t == 0:  # <r, s> is first needed here; later it comes from the beta batch
            uHu, rs = layout.dots((u, Hu), (r, s))
        else:
            (uHu,) = layout.dots((u, Hu))
        if not uHu > 0:  # also catches a NaN
            raise RuntimeError(f"PCG breakdown at inner iteration {t}: u'Hu = {uHu} is not positive")
        alpha = rs / uHu
        v = layout.map(lambda i: v[i] + alpha * u[i])
        Hv = layout.map(lambda i: Hv[i] + alpha * Hu[i])
        r = layout.map(lambda i: r[i] - alpha * Hu[i])
        s = layout.precondition(precond, r)
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
        u = layout.map(lambda i: s[i] + beta * u[i])
        rs = rs_next
    return NewtonStepResult(
        direction=layout.assemble(v),
        delta=math.sqrt(max(vHv, 0.0)),
        inner_iters=t + 1,
        residual_norm=resnorm,
        converged=resnorm <= eps_k,
        direction_blocks=v,
    )


def pcg_samples(
    cluster: Cluster,
    spart: SamplePartition,
    eps_k: float,
    config: SolverConfig,
    *,
    grad: np.ndarray,
    margins: list,
    precond: BlockPreconditioner,
) -> NewtonStepResult:
    """PCG on the sample partition; the master owns all full-length vectors.

    ``grad`` is the full gradient and ``margins`` the per-node margins X_j'w
    that the outer loop's gradient exchange leaves; ``precond`` comes from
    ``build_preconditioner``. Per inner iteration: one broadcast of the search
    direction and one reduce_all of the Hessian-product contributions, both
    of length d; dot products are free on the master.
    """
    grad = [np.asarray(grad, dtype=np.float64)]
    return _pcg(_SampleLayout(cluster, spart, config), eps_k, grad, margins, precond)


def pcg_features(
    cluster: Cluster,
    fpart: FeaturePartition,
    eps_k: float,
    config: SolverConfig,
    *,
    grad_blocks: list,
    margins: np.ndarray,
    precond: BlockPreconditioner,
) -> NewtonStepResult:
    """PCG on the feature partition; every vector lives as per-node blocks.

    ``grad_blocks`` are the per-node gradient blocks and ``margins`` the one
    length-n array X'w that every node holds after the outer loop's gradient
    exchange; ``precond`` comes from ``build_preconditioner_features``. Per
    inner iteration: one length-n reduce_all (for Hu), one scalar
    reduce_all for the u'Hu curvature term (widened to carry r's at t=0, the
    only iteration where it is not already known from the previous beta
    round), and one scalar reduce_all carrying (r's, ||r||^2, v'Hv) -- the
    beta numerator, the stopping test and the damping certificate ride one
    round. A step that runs at least one inner iteration ends with a
    concatenating reduce that assembles the direction on the master; when the
    gradient already meets ``eps_k`` (a loose tolerance; the outer loop's
    theta < 1 never allows it) the step returns the zero direction after 0
    iterations and sends nothing.
    """
    return _pcg(_FeatureLayout(cluster, fpart, config), eps_k, grad_blocks, margins, precond)


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def damped_update(w: np.ndarray, direction: np.ndarray, delta: float) -> np.ndarray:
    """w - direction / (1 + delta).

    Written as a multiply by the reciprocal so that the full-vector update
    (sample layout) and the per-block update (feature layout) perform
    bit-identical arithmetic.
    """
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

    w = layout.zeros()
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
                f"non-finite gradient at outer iteration {k}; iterate head: {np.concatenate(w)[:8]}"
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
        w = layout.map(lambda i: damped_update(w[i], step.direction_blocks[i], step.delta))
        inner_cum += step.inner_iters
        inner_unconverged += not step.converged

    return DiscoResult(
        w=np.concatenate(w),
        trace=trace,
        converged=trace[-1].grad_norm <= config.outer_tol,
        updates=len(trace) - 1,
        grad_evals=len(trace),
        inner_iters_total=inner_cum,
        inner_unconverged=inner_unconverged,
    )
