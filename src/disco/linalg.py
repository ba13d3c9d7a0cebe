"""Sparse blocks and dense-vector primitives shared by both partition layouts.

Everything is float64. The same small set of kernels backs the serial
reference computations and the per-node work inside the simulated cluster, so
that a one-node run reproduces the unpartitioned computation bit for bit.
Matrix-vector products go through scipy's CSR/CSC kernels, which accumulate
in storage order (ascending index) and are therefore deterministic from run
to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "SparseBlock",
    "PartitionedVec",
    "as_vec",
    "spmv",
    "spmv_transpose",
]


def as_vec(values) -> np.ndarray:
    """Coerce *values* to a 1-d float64 array, rejecting non-finite entries."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector contains non-finite values")
    return x


@dataclass(frozen=True)
class SparseBlock:
    """A CSR block of the feature-by-sample data matrix.

    ``matrix`` is rows x cols where rows index features and cols index
    samples. ``row_offset``/``col_offset`` locate the block inside the global
    (d, n) matrix; a full matrix is simply a block with zero offsets.
    """

    matrix: sparse.csr_array
    row_offset: int = 0
    col_offset: int = 0

    def __post_init__(self):
        m = self.matrix
        if not sparse.issparse(m):
            raise TypeError("SparseBlock.matrix must be a scipy sparse matrix")
        if m.format != "csr":
            m = m.tocsr()
        if m.dtype != np.float64:
            m = m.astype(np.float64)
        m.sum_duplicates()
        m.sort_indices()
        if not np.all(np.isfinite(m.data)):
            raise ValueError("sparse block contains non-finite values")
        if self.row_offset < 0 or self.col_offset < 0:
            raise ValueError("block offsets must be non-negative")
        object.__setattr__(self, "matrix", m)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @classmethod
    def from_dense(cls, array, row_offset: int = 0, col_offset: int = 0) -> "SparseBlock":
        dense = np.atleast_2d(np.asarray(array, dtype=np.float64))
        return cls(sparse.csr_array(dense), row_offset, col_offset)

    @classmethod
    def from_coo(cls, rows, cols, values, shape, row_offset: int = 0, col_offset: int = 0) -> "SparseBlock":
        coo = sparse.coo_array((np.asarray(values, dtype=np.float64), (rows, cols)), shape=shape)
        return cls(coo.tocsr(), row_offset, col_offset)

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def column_slice(self, start: int, stop: int) -> "SparseBlock":
        return SparseBlock(self.matrix[:, start:stop], self.row_offset, self.col_offset + start)

    def row_slice(self, start: int, stop: int) -> "SparseBlock":
        return SparseBlock(self.matrix[start:stop, :], self.row_offset + start, self.col_offset)


@dataclass(frozen=True)
class PartitionedVec:
    """A length-``total_len`` vector stored as contiguous per-node blocks."""

    blocks: tuple
    offsets: tuple
    total_len: int

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=np.float64) for b in self.blocks)
        offsets = tuple(int(o) for o in self.offsets)
        if len(blocks) != len(offsets):
            raise ValueError("one offset per block required")
        expected = 0
        for off, blk in zip(offsets, blocks):
            if off != expected:
                raise ValueError(f"block offsets must be contiguous from 0, got {offsets}")
            expected += len(blk)
        if expected != self.total_len:
            raise ValueError(f"block lengths sum to {expected}, expected {self.total_len}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_array(cls, x, sizes) -> "PartitionedVec":
        x = as_vec(x)
        sizes = [int(s) for s in sizes]
        if sum(sizes) != len(x):
            raise ValueError(f"sizes sum to {sum(sizes)}, vector has length {len(x)}")
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(int)
        blocks = [x[o:o + s].copy() for o, s in zip(offsets, sizes)]
        return cls(tuple(blocks), tuple(int(o) for o in offsets), len(x))

    def to_array(self) -> np.ndarray:
        if not self.blocks:
            return np.zeros(0)
        return np.concatenate(self.blocks)


def spmv(block: SparseBlock, x: np.ndarray) -> np.ndarray:
    """Return ``block @ x`` (length ``block.rows``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != block.cols:
        raise ValueError(
            f"spmv dimension mismatch: block is {block.rows}x{block.cols}, "
            f"vector has length {x.shape[0] if x.ndim == 1 else x.shape}"
        )
    return block.matrix @ x


def spmv_transpose(block: SparseBlock, x: np.ndarray) -> np.ndarray:
    """Return ``block.T @ x`` (length ``block.cols``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != block.rows:
        raise ValueError(
            f"spmv_transpose dimension mismatch: block is {block.rows}x{block.cols}, "
            f"vector has length {x.shape[0] if x.ndim == 1 else x.shape}"
        )
    return block.matrix.T @ x
