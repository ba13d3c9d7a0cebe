import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disco.linalg import (
    SparseBlock,
    as_vec,
    spmv,
    spmv_transpose,
)


def random_sparse(d, n, nnz, seed):
    rng = np.random.default_rng(seed)
    flat = rng.choice(d * n, size=nnz, replace=False)
    rows, cols = np.divmod(flat, n)
    vals = rng.standard_normal(nnz)
    return SparseBlock.from_coo(rows, cols, vals, shape=(d, n))


class TestSpmv:
    def test_identity(self):
        block = SparseBlock.from_dense(np.eye(2))
        assert np.array_equal(spmv(block, np.array([3.0, 5.0])), [3.0, 5.0])

    def test_diagonal(self):
        block = SparseBlock.from_dense([[2.0, 0.0], [0.0, 4.0]])
        assert np.array_equal(spmv(block, np.array([1.0, 1.0])), [2.0, 4.0])

    def test_random_matches_dense_reference(self):
        block = random_sparse(3, 4, nnz=5, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4)
        expected = block.toarray() @ x  # dense brute-force oracle
        assert np.linalg.norm(spmv(block, x) - expected) < 1e-12

    def test_dimension_mismatch_reports_both_dims(self):
        block = SparseBlock.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="3x3"):
            spmv(block, np.ones(2))

    def test_repeated_runs_bit_identical(self):
        block = random_sparse(20, 30, nnz=100, seed=2)
        x = np.random.default_rng(3).standard_normal(30)
        first = spmv(block, x)
        for _ in range(5):
            assert np.array_equal(spmv(block, x), first)


class TestSpmvTranspose:
    def test_identity(self):
        block = SparseBlock.from_dense(np.eye(2))
        assert np.array_equal(spmv_transpose(block, np.array([3.0, 5.0])), [3.0, 5.0])

    def test_hand_2x2(self):
        block = SparseBlock.from_dense([[1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(spmv_transpose(block, np.array([1.0, 1.0])), [1.0, 5.0])

    def test_random_matches_dense_reference(self):
        block = random_sparse(3, 4, nnz=6, seed=4)
        x = np.random.default_rng(5).standard_normal(3)
        expected = block.toarray().T @ x
        assert np.linalg.norm(spmv_transpose(block, x) - expected) < 1e-12

    def test_dimension_mismatch(self):
        block = SparseBlock.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            spmv_transpose(block, np.ones(4))

    def test_roundtrip_on_identity(self):
        block = SparseBlock.from_dense(np.eye(4))
        x = np.arange(4.0)
        assert np.array_equal(spmv_transpose(block, spmv(block, x)), x)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_adjoint_identity(d, n, seed):
    """<Bu, v> == <u, B'v> within 1e-10 relative."""
    rng = np.random.default_rng(seed)
    nnz = max(1, (d * n) // 3)
    block = random_sparse(d, n, nnz=nnz, seed=seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal(d)
    left = float(np.dot(spmv(block, u), v))
    right = float(np.dot(u, spmv_transpose(block, v)))
    assert abs(left - right) <= 1e-10 * max(1.0, abs(left), abs(right))


class TestSparseBlock:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            SparseBlock.from_dense([[np.inf, 0.0], [0.0, 1.0]])

    def test_slicing_tracks_offsets(self):
        block = random_sparse(6, 8, nnz=12, seed=7)
        rows = block.row_slice(2, 5)
        cols = block.column_slice(3, 7)
        assert (rows.rows, rows.cols) == (3, 8)
        assert (cols.rows, cols.cols) == (6, 4)
        assert np.array_equal(rows.toarray(), block.toarray()[2:5, :])
        assert np.array_equal(cols.toarray(), block.toarray()[:, 3:7])


def test_as_vec_rejects_matrix():
    with pytest.raises(ValueError):
        as_vec(np.ones((2, 2)))
