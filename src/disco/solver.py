"""Damped inexact-Newton outer loop: one PCG recurrence, two data layouts.

The outer loop repeats: evaluate the gradient, solve the Newton system
H v = grad approximately with preconditioned conjugate gradient, then apply
the damped update w <- w - v / (1 + delta) with delta = sqrt(v'Hv). The inner
tolerance follows the relative rule eps_k = theta * ||grad||.

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
  ||r||^2 and v'Hv), and a final concatenating reduce assembles the
  direction on the master.

Both layouts use the same preconditioner: a feature-block-diagonal curvature
matrix estimated from the first tau samples,

    P_b = (1/tau) * sum_{j<tau} h_j x_j^(b) (x_j^(b))' + mu * I

per feature block b, Cholesky-factored once per build. With identical
preconditioners the two layouts produce the same iterates up to roundoff, so
layout only changes communication cost, not the optimization path.

The layout objects call the public entry points (``pcg_*``,
``build_preconditioner*``), the partitioners and the kernels through this
module's globals at call time, so replacing one of those names (a tracer, a
test) catches every call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .comm import Cluster
from .linalg import SparseBlock, spmv, spmv_transpose
from .losses import LossKind, Objective, grad_coeffs, hess_coeffs
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
    "PcgIterate",
    "TraceRecord",
    "DiscoResult",
    "BlockPreconditioner",
    "build_preconditioner",
    "build_preconditioner_features",
    "feature_margins",
    "hessian_vec_samples",
    "hessian_vec_features",
    "pcg_samples",
    "pcg_features",
    "damped_update",
    "disco_outer",
]


class PartitionMode(str, Enum):
    SAMPLES = "samples"
    FEATURES = "features"


@dataclass
class SolverConfig:
    """Solver parameters. ``tau``/``max_inner`` of None mean "pick the default
    at solve time": tau = min(1000, available samples), max_inner =
    min(5d, 10000)."""

    lam: float
    mu: float = 1e-4
    tau: int | None = None
    loss: LossKind = LossKind.SQUARE
    theta: float = 1e-4
    outer_tol: float = 1e-8
    max_outer: int = 50
    max_inner: int | None = None
    partition_mode: PartitionMode = PartitionMode.SAMPLES

    def validate(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.mu < 0:
            raise ValueError(f"mu must be non-negative, got {self.mu}")
        if self.tau is not None and self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.outer_tol <= 0:
            raise ValueError(f"outer_tol must be positive, got {self.outer_tol}")
        if self.max_outer < 0:
            raise ValueError(f"max_outer must be >= 0, got {self.max_outer}")
        if self.max_inner is not None and self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")

    def resolved_tau(self, available: int) -> int:
        tau = min(1000, available) if self.tau is None else self.tau
        if tau > available:
            raise ValueError(f"tau={tau} exceeds the {available} samples available for the preconditioner")
        return tau

    def resolved_max_inner(self, d: int) -> int:
        return min(5 * d, 10000) if self.max_inner is None else self.max_inner


class PcgIterate(NamedTuple):
    """One inner iterate, recorded only on request (test instrumentation)."""

    direction: np.ndarray
    residual: np.ndarray
    residual_norm: float
    hessian_direction: np.ndarray


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
    direction_blocks: list | None = None
    history: list | None = None


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
    steps: list | None = None
    iterates: list | None = None


# ---------------------------------------------------------------------------
# Preconditioner
# ---------------------------------------------------------------------------


@dataclass
class BlockPreconditioner:
    """Cholesky factors of the per-feature-block subsampled curvature matrix."""

    factors: tuple
    sizes: tuple
    offsets: tuple
    mu: float

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    def apply_block(self, i: int, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        if r.shape[0] != self.sizes[i]:
            raise ValueError(f"block {i} solve: vector has length {r.shape[0]}, block is {self.sizes[i]}")
        return cho_solve(self.factors[i], r)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Solve P s = r with the stored factorization."""
        r = np.asarray(r, dtype=np.float64)
        if r.shape[0] != self.dim:
            raise ValueError(f"P solve: vector has length {r.shape[0]}, P is {self.dim}x{self.dim}")
        out = np.empty_like(r)
        for i, (off, size) in enumerate(zip(self.offsets, self.sizes)):
            out[off:off + size] = cho_solve(self.factors[i], r[off:off + size])
        return out


def _factor_curvature_block(i: int, dense_block: np.ndarray, h_tau: np.ndarray, mu: float):
    """Cholesky of (1/tau) * Xb diag(h) Xb' + mu*I for one feature block."""
    tau = dense_block.shape[1]
    gram = (dense_block * h_tau) @ dense_block.T / tau
    gram[np.diag_indices_from(gram)] += mu
    try:
        return cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"preconditioner block {i} is not positive definite; "
            f"increase mu (currently mu={mu})"
        ) from exc


def _block_preconditioner(blocks_tau: list, h_tau: np.ndarray, mu: float, sizes, offsets) -> BlockPreconditioner:
    """Factor each feature block's first-tau-samples slice (sparse, d_b x tau)."""
    factors = tuple(_factor_curvature_block(i, b.toarray(), h_tau, mu) for i, b in enumerate(blocks_tau))
    return BlockPreconditioner(factors, tuple(sizes), tuple(offsets), mu)


def build_preconditioner(
    obj: Objective,
    config: SolverConfig,
    shard: SparseBlock,
    labels: np.ndarray,
    w: np.ndarray | None,
    block_sizes: list | None = None,
    *,
    margins: np.ndarray | None = None,
) -> BlockPreconditioner:
    """Master-side build for the sample layout.

    ``shard`` is the master's block (all d features, its n_1 samples); the
    first tau of those samples feed the estimate. The logistic curvature
    needs the margins of the iterate ``w`` on those samples: pass ``margins``
    (the master's X_1'w, e.g. from the gradient step) to skip recomputing
    them. ``block_sizes`` fixes the feature-block structure and defaults to
    the balanced single-block split (i.e. the full matrix) when omitted.
    """
    tau = config.resolved_tau(shard.cols)
    sub = shard.column_slice(0, tau)
    if margins is None and w is not None:
        margins = spmv_transpose(sub, np.asarray(w, dtype=np.float64))
    h_tau = hess_coeffs(obj, None if margins is None else margins[:tau], labels[:tau])
    sizes = [shard.rows] if block_sizes is None else [int(s) for s in block_sizes]
    if sum(sizes) != shard.rows:
        raise ValueError(f"block sizes {sizes} do not cover {shard.rows} features")
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    blocks = [sub.matrix[off:off + size, :] for off, size in zip(offsets, sizes)]
    return _block_preconditioner(blocks, h_tau, config.mu, sizes, offsets)


def build_preconditioner_features(
    obj: Objective,
    config: SolverConfig,
    fpart: FeaturePartition,
    w_margins: np.ndarray | None,
) -> BlockPreconditioner:
    """Feature-layout build: node i factors its own d_i x d_i block from the
    first tau columns of its feature slice. ``w_margins`` are the replicated
    sample margins of the current iterate (any value for the square loss)."""
    tau = config.resolved_tau(fpart.n)
    margins_tau = None if w_margins is None else np.asarray(w_margins, dtype=np.float64)[:tau]
    h_tau = hess_coeffs(obj, margins_tau, fpart.y[:tau])
    blocks = [shard.matrix[:, :tau] for shard in fpart.shards]
    return _block_preconditioner(blocks, h_tau, config.mu, fpart.sizes, fpart.offsets)


# ---------------------------------------------------------------------------
# Data layouts
# ---------------------------------------------------------------------------


class _Layout:
    """A vector is a list of blocks, block i of length ``sizes[i]``.
    Subclasses set ``sizes``, ``node_labels`` (the labels node i holds) and
    ``tau_available`` (the samples the preconditioner can draw from)."""

    def __init__(self, cluster: Cluster, part, obj: Objective):
        self.cluster, self.part, self.obj = cluster, part, obj

    def zeros(self) -> list:
        return self.map(lambda i: np.zeros(self.sizes[i]))

    def curvature(self, margins: list) -> list:
        """Per-node Hessian coefficients from per-node margins; local work."""
        return self.cluster.map_nodes(lambda i: hess_coeffs(self.obj, margins[i], self.node_labels[i]))


class _SampleLayout(_Layout):
    """Sample partition: each vector is one full-length block on the master."""

    def __init__(self, cluster: Cluster, part: SamplePartition, obj: Objective):
        super().__init__(cluster, part, obj)
        self.sizes = (part.d,)
        self.node_labels = part.labels
        self.tau_available = part.sizes[0]

    def map(self, fn) -> list:
        return [fn(0)]

    def dots(self, *pairs, metered: bool = True) -> list:
        """<a, b> for each pair; free either way, the master holds both."""
        return [float(np.dot(a[0], b[0])) for a, b in pairs]

    def margins_of(self, w: list) -> list:
        """Per-node margins X_j'w; local work (nodes hold w from the gradient
        broadcast)."""
        return self.cluster.map_nodes(lambda j: spmv_transpose(self.part.shards[j], w[0]))

    def gradient(self, w: list, margins: list | None = None) -> tuple:
        """Broadcast w, reduce-all the per-node data terms, add lam*w.
        Returns the gradient and the per-node margins."""
        cluster, part, obj = self.cluster, self.part, self.obj
        w_reps = cluster.broadcast(w[0])

        def local_term(j):
            margins_j = spmv_transpose(part.shards[j], w_reps[j]) if margins is None else margins[j]
            return margins_j, spmv(part.shards[j], grad_coeffs(obj, margins_j, part.labels[j])) / obj.n

        node_margins, parts = zip(*cluster.map_nodes(local_term))
        reps = cluster.reduce_all(list(parts))
        return [reps[cluster.master] + obj.lam * w_reps[cluster.master]], list(node_margins)

    def hess_vec(self, u: list, h: list) -> list:
        """One metered Hu: broadcast u, reduce-all the data terms, add lam*u."""
        cluster, part, obj = self.cluster, self.part, self.obj
        u_reps = cluster.broadcast(u[0])

        def local_term(j):
            z = spmv_transpose(part.shards[j], u_reps[j])
            return spmv(part.shards[j], h[j] * z) / obj.n

        reps = cluster.reduce_all(cluster.map_nodes(local_term))
        return [reps[cluster.master] + obj.lam * u_reps[cluster.master]]

    def precondition(self, precond: BlockPreconditioner, r: list) -> list:
        return [precond.apply(r[0])]

    def assemble(self, v: list) -> np.ndarray:
        return v[0]

    def preconditioner(self, config: SolverConfig, w: list, margins: list) -> BlockPreconditioner:
        part = self.part
        return build_preconditioner(
            self.obj, config, part.shards[0], part.labels[0], w[0],
            balanced_sizes(part.d, self.cluster.m), margins=margins[0],
        )

    def newton_step(self, w, eps_k, config, grad, margins, precond) -> NewtonStepResult:
        return pcg_samples(
            self.cluster, self.part, self.obj, w[0], eps_k, config,
            grad=grad[0], margins=margins, precond=precond,
        )


class _FeatureLayout(_Layout):
    """Feature partition: each vector is one coordinate block per node."""

    def __init__(self, cluster: Cluster, part: FeaturePartition, obj: Objective):
        super().__init__(cluster, part, obj)
        self.sizes = part.sizes
        self.node_labels = (part.y,) * cluster.m
        self.tau_available = part.n

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
        return [float(x) for x in self.cluster.reduce_all(local)[0]]

    def margins_of(self, w: list) -> list:
        return feature_margins(self.cluster, self.part, w)

    def gradient(self, w: list, margins: list | None = None) -> tuple:
        """Per-node gradient blocks from replicated margins; the margins cost
        one length-n reduce_all unless given. Returns blocks and margins."""
        part, obj = self.part, self.obj
        if margins is None:
            margins = self.margins_of(w)

        def local_block(i):
            coeffs = grad_coeffs(obj, margins[i], part.y)
            return spmv(part.shards[i], coeffs) / obj.n + obj.lam * w[i]

        return self.cluster.map_nodes(local_block), margins

    def hess_vec(self, u: list, h: list) -> list:
        """One metered Hu: a single length-n reduce_all of the partial
        products X_i'u_i, then local block work."""
        cluster, part, obj = self.cluster, self.part, self.obj
        z_reps = cluster.reduce_all(cluster.map_nodes(lambda i: spmv_transpose(part.shards[i], u[i])))
        return cluster.map_nodes(lambda i: spmv(part.shards[i], h[i] * z_reps[i]) / obj.n + obj.lam * u[i])

    def precondition(self, precond: BlockPreconditioner, r: list) -> list:
        return self.cluster.map_nodes(lambda i: precond.apply_block(i, r[i]))

    def assemble(self, v: list) -> np.ndarray:
        return self.cluster.reduce_concat(v)

    def preconditioner(self, config: SolverConfig, w: list, margins: list) -> BlockPreconditioner:
        return build_preconditioner_features(self.obj, config, self.part, margins[0])

    def newton_step(self, w, eps_k, config, grad, margins, precond) -> NewtonStepResult:
        return pcg_features(
            self.cluster, self.part, self.obj, w, eps_k, config,
            grad_blocks=grad, margins=margins, precond=precond,
        )


def _replicas(margins, m: int) -> list:
    """Per-node margin replicas from one array, a replica list, or None."""
    if margins is None or isinstance(margins, np.ndarray):
        return [margins] * m
    return list(margins)


# ---------------------------------------------------------------------------
# Distributed Hessian-vector products (standalone entry points)
# ---------------------------------------------------------------------------


def hessian_vec_samples(
    cluster: Cluster,
    spart: SamplePartition,
    obj: Objective,
    w: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Hessian-vector product over the sample partition (2 rounds: one
    broadcast of u, one reduce_all of the partial products)."""
    layout = _SampleLayout(cluster, spart, obj)
    h = layout.curvature(layout.margins_of([np.asarray(w, dtype=np.float64)]))
    return layout.hess_vec([np.asarray(u, dtype=np.float64)], h)[0]


def feature_margins(cluster: Cluster, fpart: FeaturePartition, w_blocks: list) -> list:
    """Sample margins X'w assembled from per-node feature blocks: one
    length-n reduce_all. Returns the per-node replicas."""
    parts = cluster.map_nodes(lambda i: spmv_transpose(fpart.shards[i], w_blocks[i]))
    return cluster.reduce_all(parts)


def hessian_vec_features(
    cluster: Cluster,
    fpart: FeaturePartition,
    obj: Objective,
    u_blocks: list,
    w_margins: list | np.ndarray | None = None,
) -> list:
    """Hessian-vector product over the feature partition (1 length-n round).

    ``w_margins`` are the replicated margins of the current iterate (one
    array, or the per-node replica list from :func:`feature_margins`); they
    are only consulted for the logistic loss.
    """
    layout = _FeatureLayout(cluster, fpart, obj)
    return layout.hess_vec(u_blocks, layout.curvature(_replicas(w_margins, cluster.m)))


# ---------------------------------------------------------------------------
# Inner solver
# ---------------------------------------------------------------------------


def _pcg(
    layout: _Layout,
    w: list,
    eps_k: float,
    config: SolverConfig,
    grad: list | None,
    margins: list | None,
    precond: BlockPreconditioner | None,
    record_history: bool,
) -> NewtonStepResult:
    """PCG on H v = grad at the iterate ``w`` (all vectors in layout blocks).

    Missing inputs are computed here: the gradient with its metered exchange,
    the margins, the preconditioner. Every dot product goes through
    ``layout.dots``, batched so that the feature layout pays two scalar rounds
    per iteration.
    """
    if eps_k <= 0:
        raise ValueError(f"eps_k must be positive, got {eps_k}")
    if grad is None:
        grad, margins = layout.gradient(w, margins)
    elif margins is None:
        margins = layout.margins_of(w)
    if precond is None:
        precond = layout.preconditioner(config, w, margins)
    h = layout.curvature(margins)
    max_inner = config.resolved_max_inner(layout.part.d)

    r = layout.map(lambda i: grad[i].copy())
    # Driver-side control scalar; the metered path learns ||r|| from the
    # first beta batch below.
    resnorm = math.sqrt(layout.dots((r, r), metered=False)[0])
    if resnorm <= eps_k:
        zero = layout.zeros()
        return NewtonStepResult(np.concatenate(zero), 0.0, 0, resnorm, True, direction_blocks=zero)
    s = layout.precondition(precond, r)
    u = layout.map(lambda i: s[i].copy())
    v = layout.zeros()
    Hv = layout.zeros()
    history: list = []
    for t in range(max_inner):
        Hu = layout.hess_vec(u, h)
        if t == 0:  # <r, s> is first needed here; later it comes from the beta batch
            uHu, rs = layout.dots((u, Hu), (r, s))
        else:
            (uHu,) = layout.dots((u, Hu))
        if uHu <= 0:
            raise RuntimeError(f"PCG breakdown at inner iteration {t}: u'Hu = {uHu} <= 0")
        alpha = rs / uHu
        v = layout.map(lambda i: v[i] + alpha * u[i])
        Hv = layout.map(lambda i: Hv[i] + alpha * Hu[i])
        r = layout.map(lambda i: r[i] - alpha * Hu[i])
        s = layout.precondition(precond, r)
        rs_next, rnorm2, vHv = layout.dots((r, s), (r, r), (v, Hv))
        resnorm = math.sqrt(max(rnorm2, 0.0))
        if record_history:
            history.append(PcgIterate(np.concatenate(v), np.concatenate(r), resnorm, np.concatenate(Hv)))
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
        history=history if record_history else None,
    )


def pcg_samples(
    cluster: Cluster,
    spart: SamplePartition,
    obj: Objective,
    w: np.ndarray,
    eps_k: float,
    config: SolverConfig,
    *,
    grad: np.ndarray | None = None,
    margins: list | None = None,
    precond: BlockPreconditioner | None = None,
    record_history: bool = False,
) -> NewtonStepResult:
    """PCG on the sample partition; the master owns all full-length vectors.

    Per inner iteration: one broadcast of the search direction and one
    reduce_all of the Hessian-product contributions, both of length d; dot
    products are free on the master.

    When ``grad`` is omitted the initial exchange (broadcast w, reduce_all of
    local gradient terms) runs here; the outer loop normally performs it
    itself and passes the result in, which costs the same rounds either way.
    ``margins`` are the per-node margins X_j'w from that exchange; when
    omitted the nodes recompute them locally.
    """
    w = [np.asarray(w, dtype=np.float64)]
    grad = None if grad is None else [np.asarray(grad, dtype=np.float64)]
    return _pcg(_SampleLayout(cluster, spart, obj), w, eps_k, config, grad, margins, precond, record_history)


def pcg_features(
    cluster: Cluster,
    fpart: FeaturePartition,
    obj: Objective,
    w_blocks: list,
    eps_k: float,
    config: SolverConfig,
    *,
    grad_blocks: list | None = None,
    margins: list | np.ndarray | None = None,
    precond: BlockPreconditioner | None = None,
    record_history: bool = False,
) -> NewtonStepResult:
    """PCG on the feature partition; every vector lives as per-node blocks.

    Per inner iteration: one length-n reduce_all (for Hu), one scalar
    reduce_all for the u'Hu curvature term (widened to carry r's at t=0, the
    only iteration where it is not already known from the previous beta
    round), and one scalar reduce_all carrying (r's, ||r||^2, v'Hv) -- the
    beta numerator, the stopping test and the damping certificate ride one
    round. A final concatenating reduce assembles the direction on master.

    When ``grad_blocks``/``margins`` are omitted, the margin exchange (one
    length-n reduce_all) runs here and the gradient blocks are formed
    locally; the outer loop normally passes both in.
    """
    margins = None if margins is None else _replicas(margins, cluster.m)
    layout = _FeatureLayout(cluster, fpart, obj)
    return _pcg(layout, w_blocks, eps_k, config, grad_blocks, margins, precond, record_history)


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


def disco_outer(
    cluster: Cluster,
    dataset,
    config: SolverConfig,
    *,
    record_iterates: bool = False,
) -> DiscoResult:
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
    config.validate()
    if config.loss is LossKind.LOGISTIC:
        bad = np.setdiff1d(dataset.y, (-1.0, 1.0))
        if bad.size:
            raise ValueError(
                f"logistic loss needs labels in {{-1, +1}}; found {bad.size} other value(s): {bad[:5].tolist()}"
            )
    obj = Objective(loss=config.loss, lam=config.lam, n=dataset.n, d=dataset.d)
    if config.partition_mode is PartitionMode.SAMPLES:
        layout = _SampleLayout(cluster, partition_by_samples(dataset.X, dataset.y, cluster.m), obj)
    else:
        layout = _FeatureLayout(cluster, partition_by_features(dataset.X, dataset.y, cluster.m), obj)
    config.resolved_tau(layout.tau_available)  # fail fast on an impossible tau

    w = layout.zeros()
    precond: BlockPreconditioner | None = None
    trace: list = []
    steps: list = []
    iterates: list = []
    inner_cum = 0
    inner_unconverged = 0
    updates = 0
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
            precond = layout.preconditioner(config, w, margins)
        step = layout.newton_step(w, eps_k, config, grad, margins, precond)
        w = layout.map(lambda i: damped_update(w[i], step.direction_blocks[i], step.delta))
        inner_cum += step.inner_iters
        inner_unconverged += not step.converged
        updates += 1
        if record_iterates:
            steps.append(step)
            iterates.append(np.concatenate(w))

    return DiscoResult(
        w=np.concatenate(w),
        trace=trace,
        converged=trace[-1].grad_norm <= config.outer_tol,
        updates=updates,
        grad_evals=len(trace),
        inner_iters_total=inner_cum,
        inner_unconverged=inner_unconverged,
        steps=steps if record_iterates else None,
        iterates=iterates if record_iterates else None,
    )
