"""Split a feature-by-sample data matrix across m nodes, by samples or by features.

A sample partition gives node j a contiguous group of columns (samples), a
feature partition node i a contiguous group of rows (features); splits are
balanced, larger shards first. Every node keeps the full label vector. A
partition keeps no per-node copy of the data: it holds the unsplit ``X`` in a
block of its own, the operand of the solver's partial products
(``split_rows``) and a ``cache`` for what a solve derives from it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SparseBlock, as_vec, cut_rows, row_view

__all__ = [
    "SamplePartition",
    "FeaturePartition",
    "TILE_MIN_NNZ",
    "balanced_sizes",
    "partition_by_samples",
    "partition_by_features",
    "split_rows",
    "tile_split",
]

# The fewest nonzeros per (row, tile) segment, on average, at which
# ``tile_split`` makes a tiled copy: below it, solves through the copy were
# measured no faster than without it (CHANGES.md).
TILE_MIN_NNZ = 32


def balanced_sizes(total: int, m: int) -> list:
    """Contiguous balanced split sizes: ceil for the first total % m shards."""
    if m < 1:
        raise ValueError(f"need at least one shard, got m={m}")
    q, r = divmod(total, m)
    return [q + 1] * r + [q] * (m - r)


@dataclass(frozen=True)
class _Partition:
    """Node i holds part ``offsets[i]:+sizes[i]`` of the split dimension;
    ``y`` is the full label vector, ``X`` the unsplit data, and ``blocks``
    and ``cut`` the split's operand (``split_rows``)."""

    y: np.ndarray
    sizes: tuple
    offsets: tuple
    d: int
    n: int
    X: SparseBlock = field(repr=False, compare=False)
    blocks: tuple = field(repr=False, compare=False)
    cut: SparseBlock | None = field(repr=False, compare=False)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class SamplePartition(_Partition):
    """Node j holds all d features of samples offsets[j]:+sizes[j]: X' split by rows."""


class FeaturePartition(_Partition):
    """Node i holds features offsets[i]:+sizes[i] of all n samples: X split by rows."""


def split_rows(X: SparseBlock, sizes, by_samples: bool) -> tuple:
    """(offsets, blocks, cut) of the split matrix, X' ``by_samples`` and X
    otherwise, split into consecutive row blocks of ``sizes``. When no block
    is taller than wide (by samples, and not all square), ``blocks[i]`` is
    node i's rows in CSR over the split matrix's arrays, and ``cut`` None.
    Otherwise ``blocks`` is empty and ``cut`` is the split matrix's transpose
    (X by samples, X' in CSR by features) cut at the offsets (``cut_rows``).
    No block or cut is taller than wide; each views the arrays of X or of X'
    in CSR."""
    offsets = tuple(sum(sizes[:i]) for i in range(len(sizes)))
    cols = X.rows if by_samples else X.cols
    if (min(sizes) >= cols) if by_samples else (max(sizes) > cols):
        return offsets, (), SparseBlock(cut_rows(X.matrix if by_samples else X.matrix_t, offsets))
    split = X.matrix_t.tocsr() if by_samples else X.matrix
    return offsets, tuple(SparseBlock(row_view(split, off, off + size)) for off, size in zip(offsets, sizes)), None


def tile_split(cut: SparseBlock, offsets, k: int):
    """(blocks, reads, tiled, order) for ``cut``, a matrix cut at k column
    offsets, the tiles (``cut_rows``: row r*k + j holds row r in tile j),
    whose rows a split streams in the blocks that start at ``offsets``; None
    when the cut averages fewer than ``TILE_MIN_NNZ`` nonzeros per row.
    ``tiled`` is a CSR copy of the cut with its rows ordered block by block,
    then tile by tile: the cut's row r*k + j is its row ``order[j, r]``.
    ``blocks[i]`` views block i's rows of it and ``reads[i]`` indexes block
    i's part of a vector once per tile. Block i's transposed product with
    ``v[reads[i]]`` has the bits of the block's own, and the forward product,
    indexed by ``order``, those of the cut's."""
    rows = cut.rows // k
    if cut.nnz < TILE_MIN_NNZ * cut.rows:
        return None
    bounds = tuple(zip(offsets, (*offsets[1:], rows)))
    order = np.empty((k, rows), dtype=np.intp)
    for start, stop in bounds:
        order[:, start:stop] = start * k + np.arange(k)[:, None] * (stop - start) + np.arange(stop - start)
    source = np.empty(rows * k, dtype=np.intp)
    source[order.T.ravel()] = np.arange(rows * k)  # row q of the copy is row source[q] of the cut
    tiled = SparseBlock(cut.matrix[source])
    blocks = tuple(SparseBlock(row_view(tiled.matrix, start * k, stop * k)) for start, stop in bounds)
    reads = tuple(np.tile(np.arange(start, stop), k) for start, stop in bounds)
    return blocks, reads, tiled, order


def _row_split(X: SparseBlock, y, m: int, by_samples: bool) -> _Partition:
    """The partition whose m nodes hold balanced row blocks of the split
    matrix (X by features, X' by samples), as ``split_rows`` splits it."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):  # True would run as one node
        raise ValueError(f"node count m must be an integer, got {m!r}")
    X = SparseBlock(X.matrix)
    y = as_vec(y)
    if y.shape[0] != X.cols:
        raise ValueError(f"labels have length {y.shape[0]}, data has {X.cols} samples")
    total, what = (X.cols, "samples") if by_samples else (X.rows, "features")
    if m > total:
        raise ValueError(f"cannot split {total} {what} over {m} nodes: empty shard")
    sizes = tuple(balanced_sizes(total, m))
    offsets, blocks, cut = split_rows(X, sizes, by_samples)
    kind = SamplePartition if by_samples else FeaturePartition
    return kind(y.copy(), sizes, offsets, X.rows, X.cols, X, blocks, cut)


def partition_by_samples(X: SparseBlock, y: np.ndarray, m: int) -> SamplePartition:
    return _row_split(X, y, m, by_samples=True)


def partition_by_features(X: SparseBlock, y: np.ndarray, m: int) -> FeaturePartition:
    return _row_split(X, y, m, by_samples=False)
