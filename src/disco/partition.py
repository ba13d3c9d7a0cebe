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
and what the solver's partial products run over: node i's rows of the split
matrix, X by features and X' in CSR by samples, as ``blocks[i]``, a
``SparseBlock`` over that matrix's data and index arrays (no copy), and,
when some node's block is taller than wide, their ``stack`` built by
``stack_row_blocks``: d x (m*n) by features, n x (m*d) by samples, node i's
rows in columns i*w:(i+1)*w for the split matrix's width w. The sample
layout's X' is the copy that X's transposed products already run over when
X has more rows than columns. Both are built with the partition.

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
    data; ``blocks`` and ``stack`` are node i's rows of the split matrix and
    their stack, or None (see the module docstring)."""

    y: np.ndarray
    sizes: tuple
    offsets: tuple
    d: int
    n: int
    X: SparseBlock = field(repr=False, compare=False)
    blocks: tuple = field(repr=False, compare=False)
    stack: SparseBlock | None = field(repr=False, compare=False)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class SamplePartition(_Partition):
    """Node j holds all d features of samples offsets[j]:+sizes[j]: X' split by rows."""


class FeaturePartition(_Partition):
    """Node i holds features offsets[i]:+sizes[i] of all n samples: X split by rows."""


def _row_split(X: SparseBlock, y, m: int, by_samples: bool) -> _Partition:
    """The partition whose m nodes hold balanced row blocks of the split
    matrix, the canonical CSR matrix that its partial products run over (X
    by features, X' by samples), as blocks over that matrix's data and index
    arrays (no copy) and, when some block is taller than wide, their stack.
    Blocks no taller than wide make each partial product a scatter, run node
    by node into the reduce. Taller blocks take one gather over the stack: on
    wide_features_square (n = 500) the m partial products fit in cache
    anyway, and m calls made a solve about 4% slower."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):  # True would run as one node
        raise ValueError(f"node count m must be an integer, got {m!r}")
    X = SparseBlock(X.matrix)
    y = as_vec(y)
    if y.shape[0] != X.cols:
        raise ValueError(f"labels have length {y.shape[0]}, data has {X.cols} samples")
    total, what = (X.cols, "samples") if by_samples else (X.rows, "features")
    if m > total:
        raise ValueError(f"cannot split {total} {what} over {m} nodes: empty shard")
    # X' in CSR: when X has more rows than columns, the very copy that its
    # transposed products run over; otherwise they run over a CSC view, and
    # X' is a copy of its own.
    split = X.matrix_t.tocsr() if by_samples else X.matrix
    cols = split.shape[1]
    sizes = tuple(balanced_sizes(total, m))
    offsets = tuple(sum(sizes[:i]) for i in range(m))
    blocks = []
    for off, size in zip(offsets, sizes):
        rows = split.indptr[off:off + size + 1]
        start, stop = rows[0], rows[-1]
        view = compressed_view("csr", split.data[start:stop], split.indices[start:stop], rows - start, (size, cols))
        blocks.append(SparseBlock(view))
    stack = None if max(sizes) <= cols else SparseBlock(stack_row_blocks(split, offsets))
    kind = SamplePartition if by_samples else FeaturePartition
    return kind(y.copy(), sizes, offsets, X.rows, X.cols, X, tuple(blocks), stack)


def partition_by_samples(X: SparseBlock, y: np.ndarray, m: int) -> SamplePartition:
    return _row_split(X, y, m, by_samples=True)


def partition_by_features(X: SparseBlock, y: np.ndarray, m: int) -> FeaturePartition:
    return _row_split(X, y, m, by_samples=False)
