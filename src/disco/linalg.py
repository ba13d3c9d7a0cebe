"""Sparse blocks and dense-vector primitives shared by both partition layouts.

Everything is float64. The same small set of kernels backs the serial
reference computations and the node-local work inside the simulated cluster,
so that a one-node run reproduces the unpartitioned computation bit for bit.
``cut_rows`` cuts every row of a CSR matrix at given column offsets with a
new row pointer over its data and indices, so that one forward product gives
each column block's part of every row. Every split whose row blocks would be
taller than wide (or, by samples, all square) is read as such a cut of the
split matrix's transpose: a partition's, the other layout's split of a
solve, and the Woodbury preconditioner's d_b x tau slices. ``tile_rows``
copies such a cut with its rows reordered row block by row block, so that
one copy serves a split's row blocks and the other split's cut (a
square-loss solve with long segments). ``row_view`` gives a row block of a
CSR matrix over its own arrays. The products of a
solve (``spmv``, ``spmv_transpose`` and the preconditioner's, all through
``matvec``) call scipy's compiled CSR/CSC kernels directly: the routines
that ``operand @ x`` ends in after scipy's Python dispatch, which costs more
than the product at these sizes; the bits are the same, and the kernels
accumulate in storage order (ascending index), deterministic from run to
run. ``spmv`` multiplies by the block's CSR matrix and ``spmv_transpose``
by ``matrix_t``, for a block no taller than wide the CSC view over the same
arrays: no copy, even when those arrays are views into a larger matrix's
(``compressed_view``, which every row block and cut also uses). No block
that a solve multiplies is taller than wide, so both products loop over its
shorter side. A taller block's ``matrix_t`` is a CSR copy of its transpose,
built on first use: the partition's X keeps it as X' in CSR, which the
splits of a taller X read. The loss functions on the unpartitioned data
matrix multiply through its CSR matrix and CSC view with scipy's ``@``, so
that it never holds one.
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
    "tile_rows",
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
        """The operand of ``block.T @ x``, built on the first transposed
        product: the CSC view over the CSR arrays when rows <= cols, else a CSR
        matrix over sorted CSC arrays, so that the product's outer loop runs
        over the shorter side. Both kernels add each output element's terms in
        ascending index order, starting from 0.0, so the bits are the same."""
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
    """The CSR matrix of shape (k*rows, cols) whose row i*k + j holds row i
    of the canonical CSR ``matrix`` in columns ``offsets[j]`` up to the next
    of the k offsets (the last up to the end): a new row pointer over
    ``matrix``'s own data and indices. Its product with x holds, at
    i*k + j, row i's product with x over column block j alone, its terms
    added in ascending column order from 0.0, as the block's own product
    adds them."""
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


def tile_rows(cut, offsets, k: int) -> tuple:
    """(tiled, order) for ``cut``, a matrix's ``cut_rows`` at k column
    offsets (the tiles), whose row r*k + j holds row r in tile j: ``tiled``
    is a CSR copy of it with the rows reordered by the row blocks that start
    at ``offsets``, block by block, then tile by tile, so that block i's
    rows in tile j are rows offsets[i]*k + j*size_i onward, and ``order`` is
    the (k, rows) index array of each row's tile j in ``tiled``. Each row
    keeps its entries in column order, so a product with ``tiled`` adds each
    output element's terms in the order of the cut's product."""
    rows = cut.shape[0] // k
    bounds = (*offsets, rows)
    order = np.empty((k, rows), dtype=np.intp)
    for start, stop in zip(bounds, bounds[1:]):
        size = stop - start
        order[:, start:stop] = start * k + np.arange(k)[:, None] * size + np.arange(size)
    source = np.empty(rows * k, dtype=np.intp)
    source[order.T.ravel()] = np.arange(rows * k)  # the cut's row r*k + j is row order[j, r] of the copy
    return cut[source], order


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
    return matvec(block.matrix, x)


def spmv_transpose(block: SparseBlock, x: np.ndarray) -> np.ndarray:
    """Return ``block.T @ x`` (length ``block.cols``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != block.rows:
        raise ValueError(
            f"spmv_transpose dimension mismatch: block is {block.rows}x{block.cols}, "
            f"vector has length {x.shape[0] if x.ndim == 1 else x.shape}"
        )
    return matvec(block.matrix_t, x)
