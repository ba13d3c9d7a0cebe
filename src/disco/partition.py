"""Split a feature-by-sample data matrix across m nodes, by samples or by features.

A sample partition gives node j a contiguous group of columns (samples), a
feature partition node i a contiguous group of rows (features); splits are
balanced, larger shards first. Every node keeps the full label vector. A
partition holds data alone, no per-node copy of it: the unsplit ``X`` in a
block of its own and a ``cache`` for what a solve derives from it. The
splits a solve multiplies through come from ``operand_pair``, by one rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import SparseBlock, as_vec, cut_rows, row_view

__all__ = [
    "SamplePartition",
    "FeaturePartition",
    "TILE_MIN_NNZ",
    "balanced_sizes",
    "operand_pair",
    "partition_by_samples",
    "partition_by_features",
    "split_rows",
    "tile_split",
]

# The fewest nonzeros per (row, tile) segment, on average, at which
# ``tile_split`` makes a tiled copy: below it, solves through the copy were
# measured no faster than without it, and up to 8% slower (CHANGES.md).
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
    ``y`` is the full label vector and ``X`` the unsplit data."""

    y: np.ndarray
    sizes: tuple
    offsets: tuple
    d: int
    n: int
    X: SparseBlock = field(repr=False, compare=False)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class SamplePartition(_Partition):
    """Node j holds all d features of samples offsets[j]:+sizes[j]: X' split by rows."""


class FeaturePartition(_Partition):
    """Node i holds features offsets[i]:+sizes[i] of all n samples: X split by rows."""


class _Split(NamedTuple):
    """The operand of one split's per-node partial products: node i holds
    part ``nodes[i]`` of a vector. A streamed split has no ``cut`` and node
    i multiplies ``blocks[i]`` transposed by ``v[reads[i]]``; otherwise
    ``blocks`` and ``reads`` are empty and one forward product with ``cut``
    holds node i's part in positions ``order[i]``."""

    nodes: tuple
    blocks: tuple
    cut: SparseBlock | None
    reads: tuple
    order: np.ndarray | None


def split_rows(X: SparseBlock, sizes, by_samples: bool) -> _Split:
    """The split of X' ``by_samples`` and of X otherwise into consecutive row
    blocks of ``sizes``. When no block is taller than wide (by samples, and
    not all square), it streams node i's rows in CSR over the split matrix's
    arrays, read by ``nodes[i]``. Otherwise its ``cut`` is the split
    matrix's transpose (X by samples, X' in CSR by features) cut at the
    offsets (``cut_rows``), whose row r*k + i holds node i's part of r. No
    block or cut is taller than wide; each views the arrays of X or of X' in
    CSR."""
    offsets = tuple(sum(sizes[:i]) for i in range(len(sizes)))
    nodes = tuple(slice(off, off + size) for off, size in zip(offsets, sizes))
    cols = X.rows if by_samples else X.cols
    if (min(sizes) >= cols) if by_samples else (max(sizes) > cols):
        cut = SparseBlock(cut_rows(X.matrix if by_samples else X.matrix_t, offsets))
        return _Split(nodes, (), cut, (), np.arange(cut.rows).reshape(-1, len(sizes)).T)
    split = X.matrix_t.tocsr() if by_samples else X.matrix
    blocks = tuple(SparseBlock(row_view(split, node.start, node.stop)) for node in nodes)
    return _Split(nodes, blocks, None, nodes, None)


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


def operand_pair(part: _Partition, parts: int) -> tuple:
    """(own, mirror): the splits a solve on ``part`` multiplies through, its
    own (``split_rows`` at its sizes) and the other layout's, in ``parts``
    balanced parts. When one streams and the other is a cut of more than
    one part, ``tile_split`` may tile the cut: both then read that one copy,
    and no untiled operand is kept."""
    by_samples = isinstance(part, SamplePartition)
    sizes = balanced_sizes(part.d if by_samples else part.n, parts)
    own, mirror = split_rows(part.X, part.sizes, by_samples), split_rows(part.X, sizes, not by_samples)
    if parts > 1 and (own.cut is None) != (mirror.cut is None):
        flip = mirror.cut is None  # the partition's own split is the cut
        streamed, tiles = (mirror, own) if flip else (own, mirror)
        tiled = tile_split(tiles.cut, [node.start for node in streamed.nodes], len(tiles.nodes))
        if tiled is not None:
            blocks, reads, copy, order = tiled
            pair = streamed._replace(blocks=blocks, reads=reads), tiles._replace(cut=copy, order=order)
            return pair[::-1] if flip else pair
    return own, mirror


def _row_split(X: SparseBlock, y, m: int, by_samples: bool) -> _Partition:
    """The partition whose m nodes hold balanced row blocks of the split
    matrix (X by features, X' by samples)."""
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
    offsets = tuple(sum(sizes[:i]) for i in range(m))
    kind = SamplePartition if by_samples else FeaturePartition
    return kind(y.copy(), sizes, offsets, X.rows, X.cols, X)


def partition_by_samples(X: SparseBlock, y: np.ndarray, m: int) -> SamplePartition:
    return _row_split(X, y, m, by_samples=True)


def partition_by_features(X: SparseBlock, y: np.ndarray, m: int) -> FeaturePartition:
    return _row_split(X, y, m, by_samples=False)
