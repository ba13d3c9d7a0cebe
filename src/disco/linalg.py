"""Sparse blocks and dense-vector primitives shared by both partition layouts.

Everything is float64. ``SparseBlock`` wraps a canonical CSR matrix;
``row_view``, ``cut_rows`` and ``compressed_view`` give views over a CSR
matrix's own arrays. ``spmv`` and ``spmv_transpose`` (through ``matvec``)
call scipy's compiled CSR/CSC kernels directly, which add each output
element's terms in ascending index order from 0.0, so results are
deterministic and have the bits of ``operand @ x``.
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
    "row_view",
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


def _index_dtype(shape, nnz: int):
    """int32 when the shape and nnz fit, else int64."""
    return np.int32 if max(*shape, nnz) <= np.iinfo(np.int32).max else np.int64


def compressed_view(fmt: str, data, indices, indptr, shape):
    """The CSR or CSC (``fmt``) array of ``shape`` over exactly these
    canonical arrays, views included (scipy's constructor would copy a small
    view, so they are assigned to an empty array)."""
    view = (sparse.csr_array if fmt == "csr" else sparse.csc_array)(shape)
    view.data, view.indices, view.indptr = data, indices, indptr
    return view


@dataclass(frozen=True)
class SparseBlock:
    """A CSR block of the feature-by-sample data matrix: rows index features,
    columns index samples. Indices are int32 when the shape and nnz fit.
    ``matrix`` is the operand of forward products and ``matrix_t``, built on
    first use, that of transposed ones."""

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
        """The operand of ``block.T @ x``, built on first use: the CSC view
        over the CSR arrays when rows <= cols, else a CSR copy of the
        transpose, so that the product loops over the shorter side."""
        m = self.matrix
        if m.shape[0] <= m.shape[1]:
            return compressed_view("csc", m.data, m.indices, m.indptr, m.shape[::-1])
        return m.tocsc().T

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


def row_view(matrix, start: int, stop: int) -> sparse.csr_array:
    """Rows ``start:stop`` of the canonical CSR ``matrix``, over its own data
    and index arrays (no copy)."""
    rows = matrix.indptr[start:stop + 1]
    lo, hi = rows[0], rows[-1]
    return compressed_view("csr", matrix.data[lo:hi], matrix.indices[lo:hi], rows - lo, (stop - start, matrix.shape[1]))


def cut_rows(matrix, offsets) -> sparse.csr_array:
    """The CSR matrix of shape (k*rows, cols), a new row pointer over the
    canonical CSR ``matrix``'s own data and indices, whose row i*k + j holds
    row i in columns ``offsets[j]`` up to the next of the k offsets (the
    last to the end). Its
    product with x holds at i*k + j the bits of row i's product over column
    block j alone."""
    if len(offsets) == 1 and offsets[0] == 0:
        return matrix  # one block: the matrix itself
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
    """``operand @ x``, with its bits, for a float64 CSR or CSC ``operand``
    and a vector ``x`` of length ``operand.shape[1]``."""
    rows, cols = operand.shape
    if x.shape != (cols,):  # the kernel reads x unchecked, past its end if short
        raise ValueError(f"matvec dimension mismatch: operand is {rows}x{cols}, vector has shape {x.shape}")
    out = np.zeros(rows)
    _MATVEC[operand.format](rows, cols, operand.indptr, operand.indices, operand.data, x, out)
    return out


def spmv(block: SparseBlock, x: np.ndarray) -> np.ndarray:
    """Return ``block @ x`` (length ``block.rows``)."""
    return matvec(block.matrix, np.asarray(x, dtype=np.float64))


def spmv_transpose(block: SparseBlock, x: np.ndarray) -> np.ndarray:
    """Return ``block.T @ x`` (length ``block.cols``)."""
    return matvec(block.matrix_t, np.asarray(x, dtype=np.float64))
