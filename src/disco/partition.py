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
and the operand of the solver's partial products, which ``split_rows`` picks
from the block shape alone. The split matrix is X by features and X' by
samples. When no node's block of it is taller than wide, ``blocks[i]`` is
node i's rows of it in CSR, a ``SparseBlock`` over the matrix's data and
index arrays (no copy), multiplied transposed. Otherwise ``cut`` is the
split matrix's transpose, X by samples and X' by features (then X is taller
than wide, and X' is the CSR copy that X's own products run over), with
every row cut at the node offsets (``cut_rows``), multiplied forward. A
block taller than wide means more split rows than the node count times the
width, so the cut is no taller than wide and needs no copy of its own. When
every block is square, so is the cut, and the split takes whichever reads
X's own arrays: blocks by features, the cut by samples. Blocks by samples
view X' in CSR: the very copy that X's transposed products run over when X
has more rows than columns, else a copy of its own. Every solve also calls
``split_rows`` to split the other layout's matrix.

Each partition carries a ``cache`` dict for what later steps derive from it
alone (the solver keeps its preconditioner slices and the other layout's
split there), so that such data is made once and lives exactly as long as
the partition.

One shape gets one copy of the data, shared by both products. When a
square-loss solve streams one split's row blocks and cuts the other, and
the streamed matrix averages at least ``TILE_MIN_NNZ`` nonzeros per (row,
tile) segment, the tiles being the cut's node offsets, ``tile_split``
builds one CSR copy of the streamed matrix, cut at the tiles and ordered
node by node, then tile by tile, and the solver keeps it in the cache: 12
bytes per nonzero with int32 indices, plus a row pointer and a (tiles,
rows) index. On tall_features_square (X by features in 8 row blocks, cut at
8 sample tiles of 6,250) each node's scatter then writes one 50 KB tile at
a time instead of a 400 KB vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SparseBlock, as_vec, cut_rows, row_view, tile_rows

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

# The fewest nonzeros per (row, tile) segment, on average, at which a tiled
# copy (``tile_split``) pays for itself. Square-loss solves of
# gen_synthetic(500, n, 0.02, 0.1, 7) by features, m = 8, tau = 100, with
# the copy against without it, read +0.2% at 20 nonzeros per segment
# (faster in 4 of 10), -5.4% at 40, -12.0% at 62 and -16.5% at 125 (10 of
# 10 each; medians of 10 interleaved solves in one process, one BLAS
# thread, a shared 2-core host): 32 sits between the densest shape that
# did not gain and the sparsest that did.
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
    ``y`` is the full label vector in both layouts; ``X`` is the unsplit
    data; ``blocks`` are node i's rows of the split matrix, or, in their
    place, ``cut`` is its transpose cut at the node offsets (see the module
    docstring)."""

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
    is taller than wide, node i's rows in CSR, a ``SparseBlock`` over the
    split matrix's data and index arrays (no copy), and no cut (None): each
    partial product is a scatter, run node by node into the reduce. Otherwise
    no blocks, and the cut (``cut_rows``) of the split matrix's transpose at
    the offsets, X by samples, X' in CSR by features (X is then taller than
    wide, so ``matrix_t`` is that CSR copy): one gather gives every node's
    partial product, and on wide_features_square (n = 500) m calls made a
    solve about 4% slower. When every block is square, so is the cut, and
    the split is the one over X's own arrays: blocks by features, the cut by
    samples. A square-loss solve whose blocks of one split and cut of the
    other segment the streamed matrix into long enough pieces reads both
    through one tiled copy instead (``tile_split``)."""
    offsets = tuple(sum(sizes[:i]) for i in range(len(sizes)))
    cols = X.rows if by_samples else X.cols
    if (min(sizes) >= cols) if by_samples else (max(sizes) > cols):
        return offsets, (), SparseBlock(cut_rows(X.matrix if by_samples else X.matrix_t, offsets))
    split = X.matrix_t.tocsr() if by_samples else X.matrix
    return offsets, tuple(SparseBlock(row_view(split, off, off + size)) for off, size in zip(offsets, sizes)), None


def tile_split(cut: SparseBlock, offsets, k: int):
    """(blocks, tiled, order) for a split's ``cut``, the other split's
    matrix cut at the split's k node offsets (the tiles), where the other
    split streams the row blocks that start at ``offsets``: ``tiled`` is one
    CSR copy of the cut whose rows run block by block, then tile by tile
    (``tile_rows``), ``blocks[i]`` is block i's rows of that copy (a view),
    and ``order`` is the (tiles, rows) index of each row's tile in the copy.
    None when the cut averages fewer than ``TILE_MIN_NNZ`` nonzeros per row,
    that is per (row, tile) segment of the streamed matrix. The copy serves
    the streamed split and, with ``order``, the cut one: both products then
    read one copy and write or read one tile at a time."""
    if cut.nnz < TILE_MIN_NNZ * cut.rows:
        return None
    tiled, order = tile_rows(cut.matrix, offsets, k)
    tiled, bounds = SparseBlock(tiled), (*offsets, cut.rows // k)
    blocks = tuple(SparseBlock(row_view(tiled.matrix, start * k, stop * k)) for start, stop in zip(bounds, bounds[1:]))
    return blocks, tiled, order


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
