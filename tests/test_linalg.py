import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from disco.linalg import (
    SparseBlock,
    as_vec,
    compressed_view,
    cut_rows,
    matvec,
    spmv,
    spmv_transpose,
    stack_row_blocks,
)
from disco.partition import partition_by_features, partition_by_samples
from disco.solver import _curvature_slices


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
    how = draw(st.sampled_from(["from_dense", "from_coo", "rows", "columns"]))
    if how == "from_dense":
        return SparseBlock.from_dense(dense)
    if how == "from_coo":
        rows, cols = np.nonzero(dense)
        return SparseBlock.from_coo(rows, cols, dense[rows, cols], shape=(d, n))
    whole = SparseBlock.from_dense(dense).matrix
    size = d if how == "rows" else n
    start = draw(st.integers(0, size - 1))
    stop = draw(st.integers(start + 1, size))
    return SparseBlock(whole[start:stop, :] if how == "rows" else whole[:, start:stop])


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


def test_a_row_block_over_views_of_the_arrays_copies_nothing():
    """Rows 6:9 of a 20-row CSR matrix over slices of its arrays: scipy's
    constructor copies slices that small, ``compressed_view`` keeps them,
    and so does the transposed operand of a block over the view, whose
    product has the bits of the product with the copied rows."""
    m = random_sparse(20, 30, 120, 7).matrix
    rows = m.indptr[6:10]
    start, stop = rows[0], rows[-1]
    arrays = (m.data[start:stop], m.indices[start:stop], rows - start)
    assert not np.shares_memory(sparse.csr_array(arrays, shape=(3, 30)).data, m.data)
    block = SparseBlock(compressed_view("csr", *arrays, (3, 30)))
    assert np.array_equal(block.toarray(), m.toarray()[6:9])
    for matrix in (block.matrix, block.matrix_t):
        assert np.shares_memory(matrix.data, m.data) and np.shares_memory(matrix.indices, m.indices)
    x = np.random.default_rng(0).standard_normal(3)
    assert spmv_transpose(block, x).tobytes() == (m[6:9].T @ x).tobytes()


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
        rows = SparseBlock(block.matrix[2:5, :])
        cols = SparseBlock(block.matrix[:, 3:7])
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
    """Both operands of a Woodbury preconditioner, as the partition keeps
    them: the stack of the blocks' d_b x tau slices and its cached
    transpose."""
    rng = np.random.default_rng(17)
    block = SparseBlock.from_dense(rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.3))
    kept = _curvature_slices(partition_by_features(block, np.zeros(30), 2), 6)
    assert kept.x.matrix.shape == (40, 2 * 6) and kept.x.matrix_t.shape == (2 * 6, 40)
    for op in (kept.x.matrix, kept.x.matrix_t):
        for x in vectors(op.shape[1], rng):
            assert matvec(op, x).tobytes() == (op @ x).tobytes()


def test_as_vec_rejects_matrix():
    with pytest.raises(ValueError):
        as_vec(np.ones((2, 2)))


CALLERS = ["features", "samples", "woodbury"]


def stacked_by(caller, X, m, tau=2):
    """What ``caller`` hands ``stack_row_blocks`` for the matrix X at m
    nodes, the matrix and its row-block offsets, and the stack the caller
    keeps: X itself at the feature split of the data X; X again at the
    sample split of the data X', whose own transpose, in CSR, is X; X's
    first tau columns at the preconditioner's block split of the data X."""
    if caller == "features":
        part = partition_by_features(X, np.zeros(X.cols), m)
        return X.matrix, part.offsets, part.stack.matrix
    if caller == "samples":
        part = partition_by_samples(SparseBlock(X.matrix.T), np.zeros(X.rows), m)
        return X.matrix, part.offsets, part.stack.matrix
    kept = _curvature_slices(partition_by_features(X, np.zeros(X.cols), m), tau)
    return X.matrix[:, :tau], kept.offsets, kept.x.matrix


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("caller", CALLERS)
def test_stack_row_blocks_places_each_block_and_multiplies_as_it_does(caller, m):
    """Row block i lands in columns i*cols:(i+1)*cols and nowhere else, over
    the source's own data and row pointers, and a product with the stack,
    either way, gives each block's part the bits of the block's own product;
    for each caller's source, with an empty row and, at m=3, an all-empty
    feature block. The stack equals the one the caller keeps."""
    rng = np.random.default_rng(m)
    Xd = rng.standard_normal((30, 9)) * (rng.random((30, 9)) < 0.4)
    Xd[[4, *range(20, 30)]] = 0.0
    source, offsets, kept = stacked_by(caller, SparseBlock.from_dense(Xd), m)
    stack = stack_row_blocks(source, offsets)
    rows, cols = source.shape
    bounds = [*offsets, rows]
    want = np.zeros((rows, m * cols))
    for i in range(m):
        want[bounds[i]:bounds[i + 1], i * cols:(i + 1) * cols] = source[bounds[i]:bounds[i + 1]].toarray()
    assert stack.format == "csr" and np.array_equal(stack.toarray(), want)
    assert stack.indices.dtype == stack.indptr.dtype == np.int32
    assert np.shares_memory(stack.data, source.data) and np.shares_memory(stack.indptr, source.indptr)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(kept, name), getattr(stack, name)), name
    x, r = rng.standard_normal(m * cols), rng.standard_normal(rows)
    forward, transposed = matvec(stack, x), spmv_transpose(SparseBlock(stack), r)
    for i in range(m):
        block, part = source[bounds[i]:bounds[i + 1]], slice(i * cols, (i + 1) * cols)
        assert forward[bounds[i]:bounds[i + 1]].tobytes() == matvec(block, x[part]).tobytes()
        assert transposed[part].tobytes() == spmv_transpose(SparseBlock(block), r[bounds[i]:bounds[i + 1]]).tobytes()


@pytest.mark.parametrize("caller", CALLERS)
def test_stack_row_blocks_picks_int64_indices_when_the_width_needs_them(caller):
    """Three one-row blocks of 2**30 columns: the stack's columns overflow
    int32 though the source's do not. It is built from the source's arrays,
    without a product. Each caller's source is a 3 x 2**30 CSR matrix: X
    itself; X' built from a CSC X, as a CSR X of 2**30 features would need a
    row-pointer array of 2**30 + 1 entries; X's first 2**30 columns."""
    n = 2**30
    rows, cols, values = [0, 1, 2, 2], [5, 0, 1, n - 1], [1.0, 2.0, 3.0, 4.0]
    if caller == "features":
        source = SparseBlock.from_coo(rows, cols, values, (3, n)).matrix
    elif caller == "samples":
        indptr = np.array([0, 1, 2, 4], dtype=np.int32)  # sample j's features in CSC column j
        source = sparse.csc_array((values, np.array(cols, dtype=np.int32), indptr), shape=(n, 3)).T
    else:
        source = SparseBlock.from_coo(rows, cols, values, (3, n + 5)).matrix[:, :n]
    assert source.format == "csr" and source.shape == (3, n) and source.indices.dtype == np.int32
    stack = stack_row_blocks(source, (0, 1, 2))
    assert stack.shape == (3, 3 * n)
    assert stack.indices.dtype == stack.indptr.dtype == np.int64
    assert stack.indices.tolist() == [5, n, 2 * n + 1, 3 * n - 1]
    assert np.shares_memory(stack.data, source.data)


@pytest.mark.parametrize("offsets", [(0,), (0, 4), (0, 3, 6), (0, 2, 2, 9)])
def test_cut_rows_multiplies_as_each_column_block_does(offsets):
    """Row i*k + j of the cut holds row i's entries in column block j over
    the source's own data and indices, and its forward product, for each
    row and block, has the bits of the block's own product; with an empty
    row, an empty column block and a block running to the last column."""
    rng = np.random.default_rng(len(offsets))
    Xd = rng.standard_normal((7, 11)) * (rng.random((7, 11)) < 0.5)
    Xd[3] = 0.0
    source = SparseBlock.from_dense(Xd).matrix
    cut = cut_rows(source, offsets)
    k, bounds = len(offsets), [*offsets, 11]
    assert cut.shape == (7 * k, 11) and cut.indptr.dtype == np.int32
    assert np.shares_memory(cut.data, source.data) and np.shares_memory(cut.indices, source.indices)
    want = np.zeros((7, k, 11))
    for j in range(k):
        want[:, j, bounds[j]:bounds[j + 1]] = Xd[:, bounds[j]:bounds[j + 1]]
    assert np.array_equal(cut.toarray(), want.reshape(7 * k, 11))
    x = rng.standard_normal(11)
    got = spmv(SparseBlock(cut), x).reshape(7, k)
    for j in range(k):
        block = SparseBlock(source[:, bounds[j]:bounds[j + 1]])
        assert got[:, j].tobytes() == spmv(block, x[bounds[j]:bounds[j + 1]]).tobytes()
