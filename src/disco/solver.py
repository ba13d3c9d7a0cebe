"""Damped inexact-Newton outer loop: one PCG recurrence over two data layouts.

``disco_outer`` runs the loop over the layout that ``config.partition_mode``
picks. ``pcg_samples``/``pcg_features`` take one Newton step and
``build_preconditioner``/``build_preconditioner_features`` build the
feature-block preconditioner, each for its kind of partition; the two
layouts run the same mathematics and differ only in what they communicate,
and their square-loss iterates are bitwise equal. README describes how.

The layout calls those entry points, the outer loop its partitioner and the
products their kernels through this module's globals at call time, so
replacing one of those names here catches every call.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .comm import Cluster
from .linalg import SparseBlock, cut_rows, matvec, row_view, spmv, spmv_transpose
from .losses import Choice, LossKind, grad_coeffs, hess_coeffs
from .partition import (
    FeaturePartition,
    SamplePartition,
    _Split,
    balanced_sizes,
    operand_pair,
    partition_by_features,
    partition_by_samples,
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
    """The inverse of the symmetric a + ridge*I (written into ``a``) in the
    lower triangle of a Fortran-ordered array whose upper triangle is not
    read. Raises ``LinAlgError`` when the sum is not numerically positive
    definite or the ridge is at most eps times a's largest diagonal entry."""
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


def _check_kind(part, kind: type):
    """Raise, naming both kinds, unless ``part`` is a ``kind`` partition."""
    if not isinstance(part, kind):
        raise TypeError(f"expected a {kind.__name__}, got a {type(part).__name__}")


@dataclass
class BlockPreconditioner:
    """One build's inverted feature-block curvature matrices P_b. Block b
    covers features ``offsets[b]:+sizes[b]``; the lower triangle of ``c[b]``
    is P_b^{-1} in a dense build (``x`` None), and C_b in a Woodbury build,
    whose ``x`` is the k*tau x d cut of the blocks' d_b x tau slices X_b,
    transposed: row t*k + b holds sample t's entries in block b."""

    sizes: tuple
    offsets: tuple
    c: tuple
    x: SparseBlock | None
    mu: float

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    def apply_block(self, i: int, r: np.ndarray) -> np.ndarray:
        """Solve P_i s = r for block i alone, with the bits of ``apply``'s
        block i."""
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
        """Solve P s = r: (r - X_b C_b X_b' r) / mu per Woodbury block,
        P_b^{-1} r_b per dense block. Each block's part of the result has the
        bits of its own solve."""
        r = _vector(r, "P solve")
        if r.shape[0] != self.dim:
            raise ValueError(f"P solve: vector has length {r.shape[0]}, P is {self.dim}x{self.dim}")
        if self.x is None:
            out = np.empty_like(r)
            for c, off, size in zip(self.c, self.offsets, self.sizes):
                out[off:off + size] = _symv(1.0, c, r[off:off + size], lower=1)
            return out
        q = matvec(self.x.matrix, r).reshape(-1, len(self.c)).T
        z = np.column_stack([_symv(1.0, c, q_b, lower=1) for c, q_b in zip(self.c, q)]).ravel()
        return (r - matvec(self.x.matrix_t, z)) / self.mu


class _KeptSlices(NamedTuple):
    """X's first tau columns cut into the feature blocks at
    ``offsets``/``sizes``: for Woodbury (tau below every block's size) each
    block's dense tau x tau Gram X_b'X_b and the cut ``x`` of
    ``BlockPreconditioner``; otherwise each block's dense d_b x tau slice and
    no cut (None)."""

    sizes: tuple
    offsets: tuple
    arrays: tuple
    x: SparseBlock | None


def _curvature_slices(part: SamplePartition | FeaturePartition, tau: int) -> _KeptSlices:
    """X's first tau columns cut into ``balanced_sizes(d, min(d, m))``
    feature blocks in both layouts; made once per partition and tau, and
    kept in ``part.cache``."""
    key = ("curvature_slices", tau)
    if key not in part.cache:
        sizes = tuple(balanced_sizes(part.d, min(part.d, len(part.sizes))))
        offsets = tuple(sum(sizes[:b]) for b in range(len(sizes)))
        if tau < min(sizes):
            # x cuts the first tau rows of X' in CSR: a view of the copy that X
            # caches when it is taller than wide, else a copy of those rows.
            # Rows b, b+k, ... of x hold block b's slice alone, transposed, so
            # their product with their transpose is X_b'X_b.
            xt, k = part.X.matrix_t, len(sizes)
            x = SparseBlock(cut_rows(row_view(xt, 0, tau) if xt.format == "csr" else xt[:tau].tocsr(), offsets))
            grams = tuple((x.matrix[b::k] @ x.matrix[b::k].T).toarray() for b in range(k))
            part.cache[key] = _KeptSlices(sizes, offsets, grams, x)
        else:
            first = part.X.matrix[:, :tau]
            slices = (first[off:off + size].toarray() for off, size in zip(offsets, sizes))
            part.cache[key] = _KeptSlices(sizes, offsets, tuple(slices), None)
    return part.cache[key]


def _invert_blocks(kept: _KeptSlices, h_tau: np.ndarray, mu: float) -> BlockPreconditioner:
    """Invert every block of ``kept`` at the curvature ``h_tau`` of its tau
    samples: C_b = diag(s) K^{-1} diag(s), K = diag(s) X_b'X_b diag(s) +
    mu*tau*I, s = sqrt(h), for Woodbury, else P_b^{-1}. A block that
    rounding leaves not positive definite raises an error naming mu."""
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


def _resolved_tau(config: SolverConfig, part: SamplePartition | FeaturePartition) -> int:
    """``config.tau``, or by default min(1000, the master's balanced sample
    shard) in both layouts; raises when it exceeds the samples the
    preconditioner draws from, the master's shard by samples and all n by
    features."""
    if config.tau is None:
        return min(1000, balanced_sizes(part.n, len(part.sizes))[0])
    available = part.sizes[0] if isinstance(part, SamplePartition) else part.n
    if config.tau > available:
        raise ValueError(f"tau={config.tau} exceeds the {available} samples available for the preconditioner")
    return config.tau


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
    """The sample layout's build, on the master from its first tau samples;
    the same preconditioner as ``build_preconditioner_features``, whose
    ``margins`` it takes."""
    _check_kind(spart, SamplePartition)
    return _block_preconditioner(config, spart, _resolved_tau(config, spart), margins)


def build_preconditioner_features(
    config: SolverConfig,
    fpart: FeaturePartition,
    margins: np.ndarray | None = None,
) -> BlockPreconditioner:
    """The feature layout's build: node i inverts its own block from the
    first tau samples. ``margins`` are the length-n X'w of the current
    iterate (any value, or None, for the square loss)."""
    _check_kind(fpart, FeaturePartition)
    return _block_preconditioner(config, fpart, _resolved_tau(config, fpart), margins)


# ---------------------------------------------------------------------------
# Data layouts
# ---------------------------------------------------------------------------


def _operands(part: SamplePartition | FeaturePartition, config: SolverConfig) -> tuple:
    """(split, mirror) of a solve on ``part`` (``operand_pair``), the mirror
    in min(size, m) parts for the square loss and one for the logistic loss;
    made once per partition and part count, and kept in ``part.cache``."""
    total = part.d if isinstance(part, SamplePartition) else part.n
    parts = 1 if config.loss is LossKind.LOGISTIC else min(total, len(part.sizes))
    key = ("operands", parts)
    if key not in part.cache:
        part.cache[key] = operand_pair(part, parts)
    return part.cache[key]


def _partials(v: np.ndarray, split: _Split):
    """Node i's partial product with its part of ``v``, in node order; a
    streamed block's only when asked for, so that a sum adds each while it is
    still in cache. Each has the bits of the node's own product."""
    if split.cut is not None:
        return spmv(split.cut, v)[split.order]
    return (spmv_transpose(block, v[read]) for block, read in zip(split.blocks, split.reads))


class _Layout:
    """The per-node work and the collectives of the layout of ``part``, whose
    kind (samples or features) alone sets every difference. Building one
    validates ``config`` and checks tau against the data.

    ``split`` is the partition's split and ``mirror`` the other layout's
    (``_operands``); ``features`` is whichever splits X by rows and
    ``samples`` whichever splits X' by rows. A sum over ``split`` is the
    layout's metered reduce_all, one over ``mirror`` an unmetered sum in
    node order. By samples the master holds every solver vector whole; by
    features node i holds its slice ``x[split.nodes[i]]`` and every node
    holds each sample-space vector whole."""

    def __init__(self, cluster: Cluster, part: SamplePartition | FeaturePartition, config: SolverConfig):
        config.validate()
        if cluster.m != len(part.sizes):
            raise ValueError(f"cluster has {cluster.m} nodes, partition has {len(part.sizes)} shards")
        _resolved_tau(config, part)
        self.cluster, self.part, self.config = cluster, part, config
        self.by_samples = isinstance(part, SamplePartition)
        self.split, self.mirror = _operands(part, config)
        self.features, self.samples = (self.mirror, self.split) if self.by_samples else (self.split, self.mirror)

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

    def dots(self, *pairs, metered: bool = True) -> list:
        """<a, b> for each pair, summed over the feature split by ``_sum``,
        as Python floats; never metered when not ``metered`` (a driver-side
        control scalar by features)."""
        terms = (np.array([np.dot(a[node], b[node]) for a, b in pairs]) for node in self.features.nodes)
        return self._sum(self.features, terms, metered).tolist()

    def _sum(self, split: _Split, parts, metered: bool = True) -> np.ndarray:
        """The node-order sum (p0 + p1) + p2 ... of ``split``'s per-node
        parts: metered over the layout's own split, unmetered over the mirror
        or when not ``metered``."""
        if metered and split is self.split:
            return self.cluster.reduce_all(parts)
        return functools.reduce(operator.add, parts)

    def _product(self, u: np.ndarray, coeffs) -> tuple:
        """(X c)/n + lam*u, c = coeffs(X'u) elementwise, and the length-n
        X'u. By samples the master first broadcasts u."""
        if self.by_samples:
            u = self.cluster.broadcast(u)
        n = self.part.n
        z = self._sum(self.features, _partials(u, self.features))
        data = self._sum(self.samples, (p / n for p in _partials(coeffs(z), self.samples)))
        return data + self.config.lam * u, z

    def assemble(self, v: np.ndarray) -> np.ndarray:
        """The direction on the master: gathered by features, held already by
        samples."""
        return v if self.by_samples else self.cluster.reduce_concat([v[node] for node in self.split.nodes])

    def preconditioner(self, margins: np.ndarray) -> BlockPreconditioner:
        build = build_preconditioner if self.by_samples else build_preconditioner_features
        return build(self.config, self.part, margins)

    def newton_step(self, eps_k, grad, margins, precond, start=None) -> NewtonStepResult:
        pcg = pcg_samples if self.by_samples else pcg_features
        return pcg(self.cluster, self.part, eps_k, self.config, grad=grad, margins=margins, precond=precond,
                   start=start)


# ---------------------------------------------------------------------------
# Inner solver
# ---------------------------------------------------------------------------


def _pcg(layout: _Layout, eps_k: float, grad: np.ndarray, margins, precond: BlockPreconditioner,
         start: PcgState | None) -> NewtonStepResult:
    """PCG on H v = grad at the iterate whose gradient exchange returned
    ``grad`` and ``margins``, from v = 0 or, for the square loss, continuing
    from ``start``."""
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
    """One Newton step on the sample partition. Both PCG entry points take
    the length-d ``grad`` and length-n ``margins`` X'w of the current
    iterate, ``precond`` from the layout's builder and, for the square loss
    only, an optional ``start``, the ``PcgState`` to continue from (``grad``
    is then unused). A step whose starting residual meets ``eps_k`` runs no
    inner iteration, sends nothing and returns the start's v and delta (the
    zero direction from v = 0). README's cost model gives the collectives."""
    _check_kind(spart, SamplePartition)
    return _pcg(_Layout(cluster, spart, config), eps_k, grad, margins, precond, start)


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
    """One Newton step on the feature partition; as ``pcg_samples``."""
    _check_kind(fpart, FeaturePartition)
    return _pcg(_Layout(cluster, fpart, config), eps_k, grad, margins, precond, start)


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def damped_update(w: np.ndarray, direction: np.ndarray, delta: float) -> np.ndarray:
    """w - direction / (1 + delta), applied as a multiply by the reciprocal."""
    return w - (1.0 / (1.0 + delta)) * direction


# The inner tolerance never falls below this share of outer_tol: for the square
# loss g_{k+1} = r_k + c*Hv_k, so half goes to the PCG residual, half to c*Hv_k.
_INNER_FLOOR = 0.5


def disco_outer(cluster: Cluster, dataset, config: SolverConfig) -> DiscoResult:
    """Run the damped inexact-Newton loop on ``dataset`` over ``cluster``
    from w = 0 until ||grad|| <= ``outer_tol`` or ``max_outer`` updates, with
    eps_k = max(theta * ||grad||, outer_tol / 2): a step runs only while
    ||grad|| > outer_tol, so eps_k < ||grad|| still. One trace row per
    gradient evaluation. The logistic loss requires labels in {-1, +1}."""
    config.validate()
    partition = partition_by_samples if config.partition_mode is PartitionMode.SAMPLES else partition_by_features
    layout = _Layout(cluster, partition(dataset.X, dataset.y, cluster.m), config)

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
        eps_k = max(config.theta * gnorm, _INNER_FLOOR * config.outer_tol)
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
