"""Sparse blocks and dense-vector primitives shared by both partition layouts.

Everything is float64. The same small set of kernels backs the serial
reference computations and the node-local work inside the simulated cluster,
so that a one-node run reproduces the unpartitioned computation bit for bit.
``stack_row_blocks`` places the row blocks of a CSR matrix side by side, over
its own data and row pointers, so that one product serves every node (or
every preconditioner block); it builds each partition's stack and the
Woodbury preconditioner's stack of slices. ``cut_rows`` cuts every row of
a CSR matrix at given column offsets with a new row pointer over its data
and indices, so that one forward product gives each column block's part of
every row; a square-loss solve sums its products over the other layout's
split with it. The products of a solve
(``spmv``, ``spmv_transpose`` and the preconditioner's, all through
``matvec``) call scipy's compiled CSR/CSC kernels directly: the routines
that ``operand @ x`` ends in after scipy's Python dispatch, which costs
more than the product at these sizes. The bits are the same. The kernels
accumulate in storage order (ascending index) and are therefore deterministic
from run to run. Both products loop over the block's shorter side. A block
with no more rows than columns multiplies by its CSR matrix and, transposed,
by the CSC view over the same arrays, so it holds no copy, even when those
arrays are themselves views into a larger matrix's (``compressed_view``,
which every partition's row blocks also use). A taller one keeps
a CSR copy of its transpose, built on its first product of either kind, and
multiplies transposed by that copy and forward by the CSC view over the copy's
arrays. The loss functions on the unpartitioned data matrix multiply through
its CSR matrix and CSC view with scipy's ``@``, so that it never holds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

__all__ = [
    "SparseBlock",
    "as_vec",
    "compressed_view",
    "cut_rows",
    "matvec",
    "spmv",
    "spmv_transpose",
    "stack_row_blocks",
]


def as_vec(values) -> np.ndarray:
    """Coerce *values* to a 1-d float64 array, rejecting non-finite entries."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector contains non-finite values")
    return x


def _index_dtype(shape, nnz: int):
    """int32 when the shape and nnz fit, else int64."""
    return np.int32 if max(*shape, nnz) <= np.iinfo(np.int32).max else np.int64


def compressed_view(fmt: str, data, indices, indptr, shape):
    """The CSR or CSC (``fmt``) array of ``shape`` over exactly these
    canonical arrays, views included. scipy's constructor copies an array
    that views less than half of another, so the arrays are assigned to an
    empty array of the shape instead."""
    view = (sparse.csr_array if fmt == "csr" else sparse.csc_array)(shape)
    view.data, view.indices, view.indptr = data, indices, indptr
    return view


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
        idx = _index_dtype(m.shape, m.nnz)
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
        if m.shape[0] <= m.shape[1]:
            return compressed_view("csc", m.data, m.indices, m.indptr, m.shape[::-1])
        return m.tocsc().T

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


def stack_row_blocks(matrix, offsets) -> sparse.csr_array:
    """The CSR matrix of shape (rows, k*cols) holding row block i of the
    canonical CSR ``matrix`` (rows ``offsets[i]`` up to the next offset, the
    last block up to the end) in columns i*cols:(i+1)*cols, so that one
    product with it serves every block. It shares ``matrix``'s data and row
    pointers and writes only new column indices, int64 when the width needs
    it. Every row keeps its entries in order, so a product with the stack
    adds each output element's terms as the block's own product does."""
    rows, cols = matrix.shape
    shape = (rows, len(offsets) * cols)
    idx = _index_dtype(shape, matrix.nnz)
    indices = matrix.indices.astype(idx)
    starts = matrix.indptr[[*offsets, rows]]
    for i in range(1, len(offsets)):
        indices[starts[i]:starts[i + 1]] += i * cols
    return compressed_view("csr", matrix.data, indices, matrix.indptr.astype(idx, copy=False), shape)


def cut_rows(matrix, offsets) -> sparse.csr_array:
    """The CSR matrix of shape (k*rows, cols) whose row i*k + j holds row i
    of the canonical CSR ``matrix`` in columns ``offsets[j]`` up to the next
    of the k offsets (the last up to the end): a new row pointer over
    ``matrix``'s own data and indices. Its product with x holds, at
    i*k + j, row i's product with x over column block j alone, its terms
    added in ascending column order from 0.0, as the block's own product
    adds them."""
    rows, cols = matrix.shape
    shape = (rows * len(offsets), cols)
    # Entry positions of row i's first column at or after each offset: a
    # search over the entries' (row, column) keys, which CSR order sorts.
    keys = np.repeat(np.arange(rows, dtype=np.int64) * cols, np.diff(matrix.indptr)) + matrix.indices
    starts = np.searchsorted(keys, (np.arange(rows, dtype=np.int64)[:, None] * cols + offsets).ravel())
    indptr = np.append(starts, matrix.nnz).astype(_index_dtype(shape, matrix.nnz))
    return compressed_view("csr", matrix.data, matrix.indices, indptr, shape)


# scipy's compiled matrix-vector kernels by operand format. The module is
# private to scipy, so it is imported here alone: a scipy that moves it fails
# at import, not mid-solve.
_MATVEC = {"csr": _sparsetools.csr_matvec, "csc": _sparsetools.csc_matvec}


def matvec(operand, x: np.ndarray) -> np.ndarray:
    """Return ``operand @ x`` for a float64 CSR or CSC ``operand`` and a
    vector ``x`` of length ``operand.shape[1]``. It runs the kernel that
    scipy's ``operand @ x`` runs, on a fresh zero vector, so the bits are the
    same."""
    rows, cols = operand.shape
    if x.shape != (cols,):  # the kernel reads x unchecked, past its end if short
        raise ValueError(f"matvec dimension mismatch: operand is {rows}x{cols}, vector has shape {x.shape}")
    out = np.zeros(rows)
    _MATVEC[operand.format](rows, cols, operand.indptr, operand.indices, operand.data, x, out)
    return out


def spmv(block: SparseBlock, x: np.ndarray) -> np.ndarray:
    """Return ``block @ x`` (length ``block.rows``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != block.cols:
        raise ValueError(
            f"spmv dimension mismatch: block is {block.rows}x{block.cols}, "
            f"vector has length {x.shape[0] if x.ndim == 1 else x.shape}"
        )
    return matvec(block.matrix_fwd, x)


def spmv_transpose(block: SparseBlock, x: np.ndarray) -> np.ndarray:
    """Return ``block.T @ x`` (length ``block.cols``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != block.rows:
        raise ValueError(
            f"spmv_transpose dimension mismatch: block is {block.rows}x{block.cols}, "
            f"vector has length {x.shape[0] if x.ndim == 1 else x.shape}"
        )
    return matvec(block.matrix_t, x)
