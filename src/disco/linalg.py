"""Sparse blocks and dense-vector primitives shared by both partition layouts.

Everything is float64. The same small set of kernels backs the serial
reference computations and the per-node work inside the simulated cluster, so
that a one-node run reproduces the unpartitioned computation bit for bit.
Matrix-vector products go through scipy's CSR/CSC kernels, which accumulate
in storage order (ascending index) and are therefore deterministic from run
to run. Both products loop over the block's shorter side. A block with no
more rows than columns multiplies by its CSR matrix and, transposed, by the
CSC view over the same arrays, so it holds no copy. A taller one keeps a CSR
copy of its transpose, built on its first product of either kind, and
multiplies transposed by that copy and forward by the CSC view over the
copy's arrays. The loss functions on the unpartitioned data matrix multiply
through its CSR matrix and CSC view directly, so that it never holds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    columns index samples. Indices are int32 when the shape and nnz fit.
    ``matrix_t`` and ``matrix_fwd``, the operands of transposed and forward
    products, loop over the shorter side; a taller block's pair shares one
    copy of the transpose, built on first use."""

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
        # Retype only after canonicalising: the new matrix shares m's data.
        idx = np.int32 if max(*m.shape, m.nnz) <= np.iinfo(np.int32).max else np.int64
        if m.indices.dtype != idx or m.indptr.dtype != idx:
            m = type(m)((m.data, m.indices.astype(idx), m.indptr.astype(idx)), shape=m.shape)
        if not np.all(np.isfinite(m.data)):
            raise ValueError("sparse block contains non-finite values")
        object.__setattr__(self, "matrix", m)

    @cached_property
    def matrix_t(self):
        """The operand of ``block.T @ x``, built on the first transposed
        product: the CSC view over the CSR arrays when rows <= cols, else a CSR
        matrix over sorted CSC arrays, so that the product's outer loop runs
        over the shorter side. Both kernels add each output element's terms in
        ascending index order, starting from 0.0, so the bits are the same."""
        m = self.matrix
        return m.T if m.shape[0] <= m.shape[1] else m.tocsc().T

    @cached_property
    def matrix_fwd(self):
        """The operand of ``block @ x``: the CSR matrix when rows <= cols, else
        the CSC view over ``matrix_t``'s arrays (no copy), so that the product's
        outer loop runs over the columns. Both kernels add each output
        element's terms in ascending column order, starting from 0.0, so the
        bits are the same."""
        m = self.matrix
        return m if m.shape[0] <= m.shape[1] else self.matrix_t.T

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
    return block.matrix_fwd @ x


def spmv_transpose(block: SparseBlock, x: np.ndarray) -> np.ndarray:
    """Return ``block.T @ x`` (length ``block.cols``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != block.rows:
        raise ValueError(
            f"spmv_transpose dimension mismatch: block is {block.rows}x{block.cols}, "
            f"vector has length {x.shape[0] if x.ndim == 1 else x.shape}"
        )
    return block.matrix_t @ x
