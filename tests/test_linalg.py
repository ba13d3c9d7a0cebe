import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from disco.linalg import (
    SparseBlock,
    as_vec,
    matvec,
    spmv,
    spmv_transpose,
)
from disco.solver import _GramSlice, _kept_slice


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


def test_spmv_transpose_builds_no_view_per_call(monkeypatch):
    """The transposed operand is built on the first product, not on each,
    for a wide block (CSC view) and a tall one (CSR copy)."""
    for d, n in ((5, 7), (7, 5)):
        block = random_sparse(d, n, nnz=12, seed=8)
        x = np.random.default_rng(9).standard_normal(d)
        assert "matrix_t" not in vars(block)  # a block never multiplied transposed pays for nothing
        first = spmv_transpose(block, x)
        assert np.linalg.norm(first - block.toarray().T @ x) < 1e-12

        def no_rebuild(*args, **kwargs):
            raise AssertionError("spmv_transpose rebuilt its transposed operand")

        with monkeypatch.context() as patch:
            patch.setattr(type(block.matrix), "transpose", no_rebuild)
            patch.setattr(type(block.matrix), "tocsc", no_rebuild)
            for _ in range(3):
                assert np.array_equal(spmv_transpose(block, x), first)


@pytest.mark.parametrize("d, n", [(40, 7), (7, 40), (12, 12)])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_spmv_loops_over_the_short_side_bitwise(monkeypatch, d, n, index_dtype):
    """``spmv`` equals the CSR product ``block.matrix @ x`` bitwise for tall,
    wide and square blocks, with either index width. A tall block multiplies
    by the CSC view over ``matrix_t``'s arrays, built on the first product and
    kept; a wide or square one by its CSR matrix, building nothing."""
    block = random_sparse(d, n, nnz=(d * n) // 3, seed=d)
    if index_dtype is np.int64:  # as a block too large for int32 indices holds them
        m = block.matrix
        m64 = sparse.csr_array((m.data, m.indices.astype(np.int64), m.indptr.astype(np.int64)), shape=m.shape)
        object.__setattr__(block, "matrix", m64)
    assert block.matrix.indices.dtype == index_dtype
    x = np.random.default_rng(n).standard_normal(n)
    first = spmv(block, x)
    assert np.array_equal(first, block.matrix @ x)
    op = block.matrix_fwd
    if d > n:
        assert op.format == "csc" and op.shape == (d, n)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(op, name), getattr(block.matrix_t, name))
    else:
        assert op is block.matrix
        assert "matrix_t" not in vars(block)

    def no_rebuild(*args, **kwargs):
        raise AssertionError("spmv rebuilt its operand")

    with monkeypatch.context() as patch:
        for cls in (sparse.csr_array, sparse.csc_array):
            for attr in ("transpose", "tocsc", "tocsr"):
                patch.setattr(cls, attr, no_rebuild)
        for _ in range(3):
            assert np.array_equal(spmv(block, x), first)


@st.composite
def blocks(draw):
    """A block from each constructor, with empty rows and columns likely."""
    d = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    mask = np.array(draw(st.lists(st.booleans(), min_size=d * n, max_size=d * n))).reshape(d, n)
    values = np.random.default_rng(draw(st.integers(0, 10_000))).standard_normal((d, n))
    dense = np.where(mask, values, 0.0)
    how = draw(st.sampled_from(["from_dense", "from_coo", "row_slice", "column_slice"]))
    if how == "from_dense":
        return SparseBlock.from_dense(dense)
    if how == "from_coo":
        rows, cols = np.nonzero(dense)
        return SparseBlock.from_coo(rows, cols, dense[rows, cols], shape=(d, n))
    whole = SparseBlock.from_dense(dense)
    size = d if how == "row_slice" else n
    start = draw(st.integers(0, size - 1))
    stop = draw(st.integers(start + 1, size))
    return getattr(whole, how)(start, stop)


@settings(max_examples=60, deadline=None)
@given(block=blocks(), seed=st.integers(0, 10_000))
def test_cached_transpose_view_is_exact_and_shares_storage(block, seed):
    """Bitwise equal to the CSC scatter ``matrix.T @ x`` for every shape. A
    block with rows <= cols multiplies by the view over its own arrays; a
    taller one by a CSR operand with sorted indices, built once."""
    x = np.random.default_rng(seed).standard_normal(block.rows)
    assert np.array_equal(spmv_transpose(block, x), block.matrix.T @ x)
    op = block.matrix_t
    assert op.shape == (block.cols, block.rows)
    assert block.matrix_t is op
    if block.rows <= block.cols:
        if block.nnz:  # zero-size arrays share no memory
            assert np.shares_memory(op.data, block.matrix.data)
            assert np.shares_memory(op.indices, block.matrix.indices)
    else:
        assert op.format == "csr"
        assert all(np.all(np.diff(op.indices[a:b]) > 0) for a, b in zip(op.indptr[:-1], op.indptr[1:]))
        assert np.array_equal(op.toarray(), block.toarray().T)


class TestSparseBlock:
    @pytest.mark.parametrize("d, n", [(40, 300), (300, 40)])
    def test_int32_indices_give_the_int64_products(self, d, n):
        block = random_sparse(d, n, nnz=900, seed=d)
        assert block.matrix.indices.dtype == np.int32 and block.matrix.indptr.dtype == np.int32
        m = block.matrix
        m64 = sparse.csr_array((m.data, m.indices.astype(np.int64), m.indptr.astype(np.int64)), shape=m.shape)
        assert m64.indices.dtype == np.int64
        rng = np.random.default_rng(n)
        x, y = rng.standard_normal(n), rng.standard_normal(d)
        assert np.array_equal(spmv(block, x), m64 @ x)
        assert np.array_equal(spmv_transpose(block, y), m64.T @ y)

    def test_keeps_int64_indices_when_the_shape_needs_them(self):
        block = SparseBlock(sparse.csr_array((1, 2**31)))
        assert block.matrix.indptr.dtype == np.int64

    def test_retype_leaves_a_non_canonical_int64_input_intact(self):
        # unsorted column indices and a duplicate entry, on int64 index arrays
        data = np.array([3.0, 1.0, 2.0, 4.0, 5.0])
        indices = np.array([2, 0, 1, 0, 0], dtype=np.int64)
        indptr = np.array([0, 3, 5], dtype=np.int64)
        m = sparse.csr_array((data, indices, indptr), shape=(2, 3))
        before = m.toarray()
        block = SparseBlock(m)
        assert block.matrix.indices.dtype == np.int32
        assert np.array_equal(m.toarray(), before)
        assert np.array_equal(block.toarray(), before)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            SparseBlock.from_dense([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_dense_array(self):
        with pytest.raises(TypeError, match="scipy sparse matrix"):
            SparseBlock(np.eye(2))

    def test_int_coo_becomes_float64_csr(self):
        coo = sparse.coo_array((np.array([3, 4]), (np.array([0, 1]), np.array([1, 0]))), shape=(2, 2))
        block = SparseBlock(coo)
        assert block.matrix.format == "csr" and block.matrix.dtype == np.float64
        assert np.array_equal(block.toarray(), [[0.0, 3.0], [4.0, 0.0]])

    def test_slicing_tracks_offsets(self):
        block = random_sparse(6, 8, nnz=12, seed=7)
        rows = block.row_slice(2, 5)
        cols = block.column_slice(3, 7)
        assert (rows.rows, rows.cols) == (3, 8)
        assert (cols.rows, cols.cols) == (6, 4)
        assert np.array_equal(rows.toarray(), block.toarray()[2:5, :])
        assert np.array_equal(cols.toarray(), block.toarray()[:, 3:7])


def vectors(length, rng):
    """A contiguous, a strided and an integer-typed vector of ``length``."""
    return (rng.standard_normal(length), rng.standard_normal(2 * length)[::2],
            rng.integers(-3, 4, length))


@pytest.mark.parametrize("d, n", [(7, 11), (11, 7), (0, 5), (5, 0)])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_matvec_is_the_scipy_product_bitwise(d, n, index_dtype):
    """The direct kernel call equals scipy's ``operand @ x`` bitwise for every
    operand kind the code multiplies by: a CSR matrix and its CSC view, with
    either index width, including blocks with no rows or no columns, and
    contiguous, strided and integer-typed vectors; so do the block products
    built on it."""
    rng = np.random.default_rng(d * 100 + n)
    dense = rng.standard_normal((d, n)) * (rng.random((d, n)) < 0.4)
    m = sparse.csr_array(dense)
    m = sparse.csr_array((m.data, m.indices.astype(index_dtype), m.indptr.astype(index_dtype)), shape=m.shape)
    for op in (m, m.T):
        assert op.indices.dtype == index_dtype
        for x in vectors(op.shape[1], rng):
            got = matvec(op, x)
            assert got.dtype == np.float64 and got.shape == (op.shape[0],)
            assert got.tobytes() == (op @ x).tobytes()
    block = SparseBlock(m)
    for x in vectors(n, rng):
        assert spmv(block, x).tobytes() == (m @ x).tobytes()
    for x in vectors(d, rng):
        assert spmv_transpose(block, x).tobytes() == (m.T @ x).tobytes()


@pytest.mark.parametrize("x", [np.ones(3), np.ones(5), np.ones((4, 1)), np.ones((4, 2))])
def test_matvec_rejects_a_vector_of_the_wrong_shape(x):
    op = sparse.csr_array(np.ones((2, 4)))
    with pytest.raises(ValueError, match=r"operand is 2x4, vector has shape"):
        matvec(op, x)


def test_matvec_on_a_kept_low_rank_slice_is_the_scipy_product_bitwise():
    """Both operands of a low-rank preconditioner block, as the partition
    keeps them: the d_b x tau column slice of a block and its CSR transpose."""
    rng = np.random.default_rng(17)
    block = SparseBlock.from_dense(rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.3))
    kept = _kept_slice(block.matrix[:, :6])
    assert isinstance(kept, _GramSlice)
    for op in (kept.x, kept.xt):
        for x in vectors(op.shape[1], rng):
            assert matvec(op, x).tobytes() == (op @ x).tobytes()


def test_as_vec_rejects_matrix():
    with pytest.raises(ValueError):
        as_vec(np.ones((2, 2)))
