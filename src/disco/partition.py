"""Split a feature-by-sample data matrix across m nodes.

Two layouts:

* sample partition -- node j stores a contiguous group of columns (all d
  features of its samples) and works on the matching slice of the labels;
* feature partition -- node i stores a contiguous group of rows (its feature
  slice of *all* n samples) and every node keeps the full label vector,
  which it needs to turn exchanged margins into loss coefficients.

Splits are contiguous and balanced (sizes differ by at most one, larger
shards first), so partitioning is deterministic.

A partition keeps no per-node copy of the data. It holds the split's
``sizes`` and ``offsets``, ``X``, the unsplit data in a wrapper of its own
(the operands a product builds are cached there, not on the caller's block),
and what the solver's node-local products run over besides X, so that most
products are one kernel call over all nodes rather than one call per node:
``stack``, whose every row holds one node's entries, built by
``stack_row_blocks``. In the sample layout it is (m*d) x n, node j's columns
in rows j*d:(j+1)*d: the stack of X' with node j's samples in columns
j*d:(j+1)*d, transposed. In the feature layout it is d x (m*n), node i's rows
in columns i*n:(i+1)*n, over X's own data and row pointers, and exists only
when some node's block is taller than wide; otherwise (None) each node's
partial margins come from its own row block, ``blocks[i]``, a
``SparseBlock`` over X's data and index arrays (no copy). Both are built with
the partition.

Each partition carries a ``cache`` dict for what later steps derive from it
alone (the solver keeps its preconditioner slices there), so that such data
is made once and lives exactly as long as the partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SparseBlock, as_vec, compressed_view, stack_row_blocks

__all__ = [
    "SamplePartition",
    "FeaturePartition",
    "balanced_sizes",
    "partition_by_samples",
    "partition_by_features",
]


def balanced_sizes(total: int, m: int) -> list:
    """Contiguous balanced split sizes: ceil for the first total % m shards."""
    if m < 1:
        raise ValueError(f"need at least one shard, got m={m}")
    q, r = divmod(total, m)
    return [q + 1] * r + [q] * (m - r)


@dataclass(frozen=True)
class _Partition:
    """Node i holds part ``offsets[i]:+sizes[i]`` of the split dimension;
    ``y`` is the full label vector in both layouts; ``X`` is the unsplit
    data (see the module docstring)."""

    y: np.ndarray
    sizes: tuple
    offsets: tuple
    d: int
    n: int
    X: SparseBlock = field(repr=False, compare=False)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class SamplePartition(_Partition):
    """Column shards: node j holds all d features of samples offsets[j]:+sizes[j]."""

    stack: SparseBlock = field(repr=False, compare=False)


@dataclass(frozen=True)
class FeaturePartition(_Partition):
    """Row shards: node i holds features offsets[i]:+sizes[i] of all n samples.
    ``stack`` is None when every node's block is no taller than wide."""

    blocks: tuple = field(repr=False, compare=False)
    stack: SparseBlock | None = field(repr=False, compare=False)


def _contiguous_split(X: SparseBlock, y, m: int, total: int, what: str) -> tuple:
    """Validated labels plus the sizes and offsets of a balanced split of
    ``total`` rows or columns over m nodes."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):  # True would run as one node
        raise ValueError(f"node count m must be an integer, got {m!r}")
    y = as_vec(y)
    if y.shape[0] != X.cols:
        raise ValueError(f"labels have length {y.shape[0]}, data has {X.cols} samples")
    if m > total:
        raise ValueError(f"cannot split {total} {what} over {m} nodes: empty shard")
    sizes = tuple(balanced_sizes(total, m))
    return y, sizes, tuple(sum(sizes[:i]) for i in range(m))


def partition_by_samples(X: SparseBlock, y: np.ndarray, m: int) -> SamplePartition:
    y, sizes, offsets = _contiguous_split(X, y, m, X.cols, "samples")
    stack = stack_row_blocks(X.matrix.T.tocsr(), offsets).T  # node j's samples of X' in columns j*d:(j+1)*d
    return SamplePartition(y.copy(), sizes, offsets, X.rows, X.cols, SparseBlock(X.matrix), stack=SparseBlock(stack))


def partition_by_features(X: SparseBlock, y: np.ndarray, m: int) -> FeaturePartition:
    y, sizes, offsets = _contiguous_split(X, y, m, X.rows, "features")
    x, n = X.matrix, X.cols
    blocks = []
    for off, size in zip(offsets, sizes):
        rows = x.indptr[off:off + size + 1]
        start, stop = rows[0], rows[-1]
        view = compressed_view("csr", x.data[start:stop], x.indices[start:stop], rows - start, (size, n))
        blocks.append(SparseBlock(view))
    # Every block no taller than wide: the solver's transposed products are
    # scatters, run node by node into the reduce. Taller blocks take one
    # gather over the stack: on wide_features_square (n = 500) the m partial
    # products fit in cache anyway, and m calls made a solve about 4% slower.
    stack = None if max(sizes) <= n else SparseBlock(stack_row_blocks(x, offsets))
    return FeaturePartition(y.copy(), sizes, offsets, X.rows, n, SparseBlock(x), blocks=tuple(blocks), stack=stack)
