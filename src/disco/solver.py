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

The recurrence, the preconditioner build, the outer loop, both products
(gradient and Hessian) and the dot products are written once, over one
layout object, ``_Layout``, which reads its kind from the partition's type.
In both layouts a solver vector (w, grad, r, s, u, v, Hu, Hv) is one
length-d float64 array and a sample-space vector (margins X'w, curvature h,
labels) one length-n array; the layouts differ only in where the per-node
work runs and what combining it costs:

* split by samples, node j works on its samples' slice of a sample-space
  vector and the master holds every solver vector whole, so dot products are
  free; each product broadcasts its direction and reduce-alls the per-node
  contributions (R^d each).
* split by features, node i works on its feature block's slice of a solver
  vector and holds every sample-space vector whole; each product costs one
  length-n reduce_all (X'u), the dot products ride two scalar reduce_alls
  per inner iteration (the first also carries the initial <r, s>; the second
  carries r's, ||r||^2 and v'Hv), and a step that ran any inner iteration
  ends with a concatenating reduce that assembles the direction on the
  master.

A broadcast or reduce_all returns the one read-only array that every node
then holds, so no layout keeps per-node replicas; PCG never writes into an
array it did not just allocate.

Both layouts run the same pair of products, written once in
``_Layout._product``: X'u summed over the feature split, then X c / n over
the sample split. A sum over the layout's own split, its partition's (X by
features, X' by samples), is its metered reduce_all; one over its
``mirror``, the other layout's split, is unmetered; the sample layout adds
only its broadcast of u. ``split_rows`` makes every split and picks its
operand from the block shape alone. When every block is no taller than wide,
the partials are a scatter whose m results can together outgrow the cache
(8 x 50,000 doubles on the tall benchmark workload), so node i's is computed
from its own row block, transposed, only when the sum asks for it, and is
added while it is still in cache. Otherwise they are one forward product
with the split matrix's transpose cut at the node offsets (``cut_rows``),
whose every row holds one node's part of one output element. Either way the
collectives, their rounds and their bytes are those of a per-node run. A
Woodbury preconditioner applies its blocks through the same kind of cut of
its slices, one product each way.

When one split streams its row blocks and the other is a cut, a
square-loss solve whose streamed matrix averages at least ``TILE_MIN_NNZ``
nonzeros per (row, tile) segment, the tiles being the cut's node offsets,
runs both through one tiled copy of the streamed matrix (``tile_split``,
kept in the partition's cache beside the mirror; on tall data, in either
layout, X cut at the 8 sample offsets). Node i's partial is one transposed
product over its rows of the copy with ``v[node]`` repeated once per tile,
so that its scatter writes inside one tile at a time, and the other split's
partials are one forward product over the whole copy, put into node order
by an index fixed when the copy is built. Every output element adds the
same terms in the same order, so the bits are those of the untiled
products; a logistic solve, whose mirror has one part, has no tiles.

A square-loss mirror has min(size, m) parts, so both layouts sum every
product in node order, as the other layout's reduce_all sums it, and the
sample layout sums its dot products over the feature split as the feature
layout's scalar reduce_alls do; the feature layout divides each part of its
data term by n, as the sample layout does. Every other operation is
elementwise on the same arrays in both layouts, so square-loss iterates are
bitwise equal across layouts, and a CG run continued over many steps cannot
drift between them. A logistic solve restarts PCG at every step, and summing
its products over both splits cost more time than it bought, so its mirror
has one part: one kernel call over all of X or X', on the arrays that X's
own products read, and the layouts round differently.

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
X_b'X_b (one sparse product per block per solve) and the k*tau x d cut of
the slices' transpose, whose row t*k + b holds sample t's entries in block
b, and whose CSC view serves the apply's second product; otherwise each
block's dense d_b x tau slice. Only the sqrt(h) scaling depends on the
iterate, so a logistic rebuild at every Newton step slices nothing and
creates no sparse matrix: Woodbury scales each kept Gram by sqrt(h) on
both sides, an O(tau^2) pass, adds mu*tau*I and inverts it; a dense build
forms and inverts each d_b x d_b Gram. The price is one extra tau x tau
array per block for the life of the partition, 8 MB per block at the
default tau = 1000. With identical preconditioners the two layouts produce the same
iterates, up to roundoff for the logistic loss and bit for bit for the
square loss, so layout only changes communication cost, not the
optimization path.

No row block or cut is taller than wide, so each multiplies over its
shorter side, forward through its CSR matrix and transposed through the CSC
view over the same arrays (no copy). Both kernels add each output element's
terms in ascending index order from 0.0, so each node's part of a product
with a cut has the bits of a per-node product.

A solve is described once: the partition gives the data, n, the feature
block split and, by its type, the layout; ``SolverConfig`` gives the loss,
lam and every solver parameter. A layout validates the config, and that tau
fits the data, when it is built; each entry point first checks that its
partition is of its kind. Each PCG solve is handed what the outer loop
already holds: the gradient and margins from its metered exchange, the
preconditioner and, for the square loss, the state to continue from.

The layout calls its kind's public entry points (``pcg_*``,
``build_preconditioner*``), the outer loop its partitioner and the products
the kernels, all through this module's globals at call time, so replacing
one of those names catches every call: the benchmark's tracer times the
layers that way, and the tests record the Newton steps and preconditioned
residuals of a solve, which the solver itself does not keep.
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
    balanced_sizes,
    partition_by_features,
    partition_by_samples,
    split_rows,
    tile_split,
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

    def resolved_tau(self, available: int, master_shard: int) -> int:
        """tau, checked against the ``available`` samples; the default is
        min(1000, master_shard)."""
        if self.tau is None:
            return min(1000, master_shard)
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


def _check_kind(part, kind: type):
    """Raise, naming both kinds, unless ``part`` is a ``kind`` partition."""
    if not isinstance(part, kind):
        raise TypeError(f"expected a {kind.__name__}, got a {type(part).__name__}")


@dataclass
class BlockPreconditioner:
    """The inverted per-feature-block subsampled curvature matrices of one
    build. Block b covers features ``offsets[b]:+sizes[b]`` and applies
    ``c[b]``, a Fortran-ordered array whose lower triangle alone is read,
    with one ``dsymv``. A Woodbury build holds ``x``, the k*tau x d cut of
    the k blocks' sparse d_b x tau slices X_b, transposed: row t*k + b holds
    sample t's entries in block b's features; and c[b] = C_b. A dense build
    holds no cut (None) and c[b] = P_b^{-1}."""

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
        one forward product with the cut ``x``, one ``dsymv`` per block and
        one product with the cut's CSC view (its ``matrix_t``),
        (r - X_b C_b X_b' r) / mu for every block at once; a dense
        build through one ``dsymv`` per block. Every row of the cut holds
        one block's entries in that block's order, so each block's part of
        the result has the bits of its own solve."""
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
    """What a partition keeps of X's first tau columns, cut into the feature
    blocks at ``offsets``/``sizes``. A Woodbury cut (tau below every block's
    size) keeps each block's dense tau x tau Gram X_b'X_b in ``arrays``, which
    no curvature changes, and the cut ``x`` that ``BlockPreconditioner.apply``
    reads; a dense cut keeps each block's dense d_b x tau slice and no
    sparse cut (None)."""

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


def _resolved_tau(config: SolverConfig, part: SamplePartition | FeaturePartition) -> int:
    """tau, checked against the samples that the preconditioner can draw
    from: the master's shard when ``part`` splits samples, all n when it
    splits features. The default is min(1000, the master's balanced sample
    shard) in both, so that both layouts build one preconditioner."""
    available = part.sizes[0] if isinstance(part, SamplePartition) else part.n
    return config.resolved_tau(available, balanced_sizes(part.n, len(part.sizes))[0])


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
    _check_kind(spart, SamplePartition)
    return _block_preconditioner(config, spart, _resolved_tau(config, spart), margins)


def build_preconditioner_features(
    config: SolverConfig,
    fpart: FeaturePartition,
    margins: np.ndarray | None = None,
) -> BlockPreconditioner:
    """Feature-layout build: node i inverts its own block from the first tau
    columns of its feature rows. ``margins`` are the length-n sample margins
    X'w of the current iterate (any value, or None, for the square loss)."""
    _check_kind(fpart, FeaturePartition)
    return _block_preconditioner(config, fpart, _resolved_tau(config, fpart), margins)


# ---------------------------------------------------------------------------
# Data layouts
# ---------------------------------------------------------------------------


class _Split(NamedTuple):
    """The operand of one split's per-node partial products, as
    ``split_rows`` picks it: node i holds part ``nodes[i]`` of a vector and
    ``blocks[i]``, its rows of the split matrix, multiplied transposed; or, in
    place of the blocks, ``cut``, the split matrix's transpose cut at the
    nodes' offsets, multiplied forward. Through a tiled copy (``tile_split``)
    a streamed block's rows repeat the node's part once per tile, which it
    reads as ``v[reads[i]]``, and a cut's product holds node i's part in
    positions ``order[i]``."""

    nodes: tuple
    blocks: tuple
    cut: SparseBlock | None
    reads: tuple | None = None
    order: np.ndarray | None = None


def _node_slices(offsets, sizes) -> tuple:
    return tuple(slice(off, off + size) for off, size in zip(offsets, sizes))


def _tiled(part: SamplePartition | FeaturePartition, split: _Split, mirror: _Split) -> tuple:
    """(split, mirror), the layout's own split and its mirror, both through
    one tiled copy of the streamed matrix when the mirror has more than one
    part (a square-loss solve), one of them streams its row blocks, the other
    is a cut, and ``tile_split`` builds the copy with the cut's node offsets
    as tiles; else as they are. The copy is kept in ``part.cache`` beside the
    mirror."""
    key = ("tiled", len(mirror.nodes))
    if key not in part.cache:
        if len(mirror.nodes) == 1 or (split.cut is None) == (mirror.cut is None):
            return split, mirror
        streamed, tiles = (split, mirror) if split.cut is None else (mirror, split)
        tiled = tile_split(tiles.cut, [node.start for node in streamed.nodes], len(tiles.nodes))
        if tiled is None:
            return split, mirror
        blocks, copy, order = tiled
        reads = tuple(np.tile(np.arange(node.start, node.stop), len(tiles.nodes)) for node in streamed.nodes)
        pair = (streamed._replace(blocks=blocks, reads=reads), tiles._replace(cut=copy, order=order))
        part.cache[key] = pair if streamed is split else pair[::-1]
    return part.cache[key]


def _partials(v: np.ndarray, split: _Split):
    """Node i's partial product with ``v[nodes[i]]``, in node order: computed
    from its own block only when asked for, so that a sum adds each while it
    is still in cache, or column i of one product with the cut, whose every
    row holds one node's terms in that node's order, so each has the bits of
    its own product."""
    if split.cut is not None:
        z = spmv(split.cut, v)
        return z.reshape(-1, len(split.nodes)).T if split.order is None else z[split.order]
    return (spmv_transpose(block, v[read]) for block, read in zip(split.blocks, split.reads or split.nodes))


def _node_sum(parts):
    """(p0 + p1) + p2 ..., the sum that ``Cluster.reduce_all`` forms, for a
    sum that no collective meters."""
    return functools.reduce(operator.add, parts)


class _Layout:
    """The per-node work and the collectives of the layout of ``part``, a
    sample or a feature partition, whose kind alone sets every difference;
    node i holds ``nodes[i]`` of the split dimension. ``config`` is
    validated here, and tau checked against the samples the preconditioner
    draws from.

    ``mirror`` is the other layout's split, made by ``split_rows`` as the
    partition's is, into min(size, m) parts for the square loss, so that both
    layouts sum every product in the same order, and into one for the
    logistic loss, whose solve restarts at every step; ``features`` is the
    split of X by rows and ``samples`` that of X' by rows. A sum over the
    layout's own split is metered, and one over the mirror is not. Where
    ``_tiled`` finds long segments, both splits read one tiled copy.

    By samples, the master holds every solver vector whole: each product
    first broadcasts its direction, and the direction a step returns is
    already on the master. By features, node i holds and works on its slice
    ``x[nodes[i]]`` of every solver vector, every node holds each
    sample-space vector whole, and a step's direction is gathered on the
    master."""

    def __init__(self, cluster: Cluster, part: SamplePartition | FeaturePartition, config: SolverConfig):
        config.validate()
        if cluster.m != len(part.sizes):
            raise ValueError(f"cluster has {cluster.m} nodes, partition has {len(part.sizes)} shards")
        _resolved_tau(config, part)
        self.cluster, self.part, self.config = cluster, part, config
        self.by_samples = isinstance(part, SamplePartition)
        self.nodes = _node_slices(part.offsets, part.sizes)
        self.split = _Split(self.nodes, part.blocks, part.cut)
        total = part.d if self.by_samples else part.n
        parts = 1 if config.loss is LossKind.LOGISTIC else min(total, len(part.sizes))
        if ("mirror", parts) not in part.cache:
            sizes = balanced_sizes(total, parts)
            offsets, blocks, cut = split_rows(part.X, sizes, not self.by_samples)
            part.cache["mirror", parts] = _Split(_node_slices(offsets, sizes), blocks, cut)
        self.split, self.mirror = _tiled(part, self.split, part.cache["mirror", parts])
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
        """<a, b> for each pair, from per-node terms over the feature split in
        node order. By features, and ``metered``, the terms ride one scalar
        reduce_all. Otherwise they are summed as Python floats, as the
        collective sums them, without one: by samples the master holds both
        vectors, so a dot product is free, and by features an unmetered one
        is a control scalar that stands in for a piggybacked value and is
        deliberately not counted as a round."""
        nodes = self.features.nodes
        if metered and not self.by_samples:

            def terms(i):
                node = nodes[i]
                return np.array([float(np.dot(a[node], b[node])) for a, b in pairs])

            return [float(x) for x in self.cluster.reduce_all(self.cluster.map_nodes(terms))]
        sums = []
        for a, b in pairs:
            total = None
            for node in nodes:
                term = float(np.dot(a[node], b[node]))
                total = term if total is None else total + term
            sums.append(total)
        return sums

    def _sum(self, split: _Split, parts) -> np.ndarray:
        """The node-order sum of ``split``'s partial products: the layout's
        reduce_all over its own split, unmetered over the mirror."""
        return self.cluster.reduce_all(parts) if split is self.split else _node_sum(parts)

    def _product(self, u: np.ndarray, coeffs) -> tuple:
        """(X c)/n + lam*u, c = coeffs(X'u), and the length-n X'u, where
        ``coeffs`` maps margins elementwise: X'u summed over the feature
        split, X c over the sample split, each part divided by n. By samples
        the master first broadcasts u to every node."""
        if self.by_samples:
            u = self.cluster.broadcast(u)
        n = self.part.n
        z = self._sum(self.features, _partials(u, self.features))
        data = self._sum(self.samples, (p / n for p in _partials(coeffs(z), self.samples)))
        return data + self.config.lam * u, z

    def assemble(self, v: np.ndarray) -> np.ndarray:
        """The direction on the master: gathered by features, held already by
        samples."""
        return v if self.by_samples else self.cluster.reduce_concat([v[node] for node in self.nodes])

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
    _check_kind(fpart, FeaturePartition)
    return _pcg(_Layout(cluster, fpart, config), eps_k, grad, margins, precond, start)


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
