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
    """A CSR block of the feature-by-sample data matrix: rows index features,
    columns index samples."""

    matrix: sparse.csr_array

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
    def from_dense(cls, array) -> "SparseBlock":
        dense = np.atleast_2d(np.asarray(array, dtype=np.float64))
        return cls(sparse.csr_array(dense))

    @classmethod
    def from_coo(cls, rows, cols, values, shape) -> "SparseBlock":
        coo = sparse.coo_array((np.asarray(values, dtype=np.float64), (rows, cols)), shape=shape)
        return cls(coo.tocsr())

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def column_slice(self, start: int, stop: int) -> "SparseBlock":
        return SparseBlock(self.matrix[:, start:stop])

    def row_slice(self, start: int, stop: int) -> "SparseBlock":
        return SparseBlock(self.matrix[start:stop, :])


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
