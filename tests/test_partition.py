import numpy as np
import pytest

from disco import SparseBlock, full_gradient, partition_by_features, partition_by_samples
from disco import partition as partition_module
from disco.linalg import cut_rows, spmv, spmv_transpose
from disco.losses import grad_coeffs
from disco.partition import SamplePartition, balanced_sizes, split_rows, tile_split

from conftest import make_dense_instance


def node_blocks(X, part, by_samples):
    """Each node's part of the data, cut from X at the partition's offsets:
    its columns by samples, its rows by features."""
    cuts = [(slice(None), slice(off, off + size)) if by_samples else (slice(off, off + size), slice(None))
            for off, size in zip(part.offsets, part.sizes)]
    return [SparseBlock(X.matrix[cut]) for cut in cuts]


def own_split(part):
    """The partition's own split (``split_rows`` at its sizes), whose node i
    holds part ``offsets[i]:+sizes[i]``: a streamed split reads it by that
    slice, and a cut's forward product holds it at rows i, i+m, ..."""
    split = split_rows(part.X, part.sizes, isinstance(part, SamplePartition))
    m = len(part.sizes)
    assert split.nodes == tuple(slice(off, off + size) for off, size in zip(part.offsets, part.sizes))
    if split.cut is None:
        assert split.reads == split.nodes and split.order is None and len(split.blocks) == m
    else:
        assert split.blocks == split.reads == ()
        assert np.array_equal(split.order, np.arange(split.cut.rows).reshape(-1, m).T)
    return split


def node_rows(part, i):
    """Node i's rows of the partition's split matrix (X' by samples, X by
    features) as its products read them: its row block when its own split
    streams, else its columns of the cut's rows i, i+m, ..., transposed."""
    split = own_split(part)
    if split.cut is None:
        return split.blocks[i].matrix
    off, size, m = part.offsets[i], part.sizes[i], len(part.sizes)
    return split.cut.matrix[i::m][:, off:off + size].T


class TestBalancedSizes:
    def test_uneven(self):
        assert balanced_sizes(5, 2) == [3, 2]

    def test_even(self):
        assert balanced_sizes(6, 3) == [2, 2, 2]

    def test_single(self):
        assert balanced_sizes(9, 1) == [9]

    def test_no_shards_rejected(self):
        with pytest.raises(ValueError, match="at least one shard, got m=0"):
            balanced_sizes(5, 0)


@pytest.mark.parametrize("partition", [partition_by_samples, partition_by_features])
@pytest.mark.parametrize("labels, message", [
    ([1.0, np.nan, 0.0, 2.0, 1.0], "vector contains non-finite values"),
    ([1.0, 0.0, 2.0, 1.0], "labels have length 4, data has 5 samples"),
], ids=["nan", "short"])
def test_rejects_bad_labels(partition, labels, message):
    ds, _ = make_dense_instance(d=4, n=5, seed=0)
    with pytest.raises(ValueError, match=message):
        partition(ds.X, np.array(labels), 2)


@pytest.mark.parametrize("partition", [partition_by_samples, partition_by_features])
@pytest.mark.parametrize("m", [True, 2.0, 1.5, "2", None])
def test_rejects_a_node_count_that_is_not_an_integer(partition, m):
    # m=True once ran as one node, and a float failed inside numpy with a
    # message that named neither m nor the node count
    ds, _ = make_dense_instance(d=4, n=5, seed=0)
    with pytest.raises(ValueError, match=f"node count m must be an integer, got {m!r}"):
        partition(ds.X, ds.y, m)


class TestSamplePartition:
    def test_sizes_and_offsets(self):
        ds, _ = make_dense_instance(d=4, n=5, seed=0)
        part = partition_by_samples(ds.X, ds.y, 2)
        assert part.sizes == (3, 2)
        assert part.offsets == (0, 3)
        assert own_split(part).cut is None  # no block of X' is taller than wide
        assert [node_rows(part, j).shape for j in range(2)] == [(3, 4), (2, 4)]

    def test_single_node_is_identity(self):
        ds, _ = make_dense_instance(d=4, n=6, seed=1)
        part = partition_by_samples(ds.X, ds.y, 1)
        # the one 6 x 4 block of X' is taller than wide: its cut is X itself
        split = own_split(part)
        assert np.array_equal(split.cut.toarray(), ds.X.toarray())
        assert split.blocks == () and np.array_equal(node_rows(part, 0).toarray(), ds.X.toarray().T)
        assert np.array_equal(part.X.toarray(), ds.X.toarray())
        assert np.array_equal(part.y, ds.y)

    def test_even_split_offsets(self):
        ds, _ = make_dense_instance(d=3, n=6, seed=2)
        part = partition_by_samples(ds.X, ds.y, 3)
        assert part.sizes == (2, 2, 2) and part.offsets == (0, 2, 4)

    def test_round_trip_reassembly(self):
        # shards of 3, 3, 3 and 2 samples: the blocks of X' are no taller than
        # wide at d=7 and read one by one, taller at d=2 and read from the cut
        for d in (7, 2):
            ds, _ = make_dense_instance(d=d, n=11, seed=3)
            part = partition_by_samples(ds.X, ds.y, 4)
            split = own_split(part)
            assert (split.cut is None) == (d == 7) and (split.blocks == ()) == (d == 2)
            blocks = [node_rows(part, j) for j in range(4)]
            for got, want in zip(blocks, node_blocks(ds.X, part, True), strict=True):
                assert np.array_equal(got.toarray(), want.toarray().T)
            assert np.array_equal(np.vstack([b.toarray() for b in blocks]), ds.X.toarray().T)
            # sparsity structure preserved, not just values
            assert sum(b.nnz for b in blocks) == ds.X.nnz
            assert np.array_equal(np.concatenate([part.y[o:o + s] for o, s in zip(part.offsets, part.sizes)]), ds.y)

    def test_too_many_nodes(self):
        ds, _ = make_dense_instance(d=4, n=3, seed=4)
        with pytest.raises(ValueError, match="empty shard"):
            partition_by_samples(ds.X, ds.y, 4)


class TestFeaturePartition:
    def test_sizes(self):
        ds, _ = make_dense_instance(d=4, n=6, seed=5)
        part = partition_by_features(ds.X, ds.y, 2)
        assert part.sizes == (2, 2)
        assert own_split(part).cut is None  # no block is taller than wide
        assert [node_rows(part, i).shape for i in range(2)] == [(2, 6), (2, 6)]

    def test_single_node_is_identity(self):
        ds, _ = make_dense_instance(d=5, n=6, seed=6)
        part = partition_by_features(ds.X, ds.y, 1)
        assert np.array_equal(node_rows(part, 0).toarray(), ds.X.toarray())
        assert np.array_equal(part.X.toarray(), ds.X.toarray())

    def test_round_trip_reassembly(self):
        ds, _ = make_dense_instance(d=9, n=5, seed=7)
        part = partition_by_features(ds.X, ds.y, 4)
        blocks = [node_rows(part, i) for i in range(4)]
        for got, want in zip(blocks, node_blocks(ds.X, part, False), strict=True):
            assert np.array_equal(got.toarray(), want.toarray())
        assert np.array_equal(np.vstack([b.toarray() for b in blocks]), ds.X.toarray())
        assert sum(b.nnz for b in blocks) == ds.X.nnz

    def test_labels_replicated_fully(self):
        ds, _ = make_dense_instance(d=6, n=8, seed=8)
        part = partition_by_features(ds.X, ds.y, 3)
        assert np.array_equal(part.y, ds.y)

    def test_too_many_nodes(self):
        ds, _ = make_dense_instance(d=3, n=8, seed=9)
        with pytest.raises(ValueError):
            partition_by_features(ds.X, ds.y, 4)


class TestObjectiveEquivalence:
    """The gradient assembled from each node's part of the data, cut at either
    partition's offsets, reproduces the unpartitioned gradient, including for
    uneven shard sizes."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sample_partition_gradient(self, m):
        ds, obj = make_dense_instance(d=6, n=7, seed=10, lam=0.3)
        rng = np.random.default_rng(11)
        w = rng.standard_normal(6)
        expected = full_gradient(obj, ds.X, ds.y, w)
        part = partition_by_samples(ds.X, ds.y, m)
        # manual weighted assembly: each shard contributes (1/n) X_j g_j
        total = np.zeros(6)
        for shard, off, size in zip(node_blocks(ds.X, part, True), part.offsets, part.sizes):
            yj = part.y[off:off + size]
            margins = spmv_transpose(shard, w)
            total += spmv(shard, grad_coeffs(obj.loss, margins, yj)) / obj.n
        total += obj.lam * w
        assert np.linalg.norm(total - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_feature_partition_gradient(self, m):
        ds, obj = make_dense_instance(d=6, n=7, seed=12, lam=0.3)
        rng = np.random.default_rng(13)
        w = rng.standard_normal(6)
        expected = full_gradient(obj, ds.X, ds.y, w)
        part = partition_by_features(ds.X, ds.y, m)
        margins = np.zeros(7)
        blocks = []
        shards = node_blocks(ds.X, part, False)
        for shard, off, di in zip(shards, part.offsets, part.sizes):
            margins += spmv_transpose(shard, w[off:off + di])
        coeffs = grad_coeffs(obj.loss, margins, part.y)
        for shard, off, di in zip(shards, part.offsets, part.sizes):
            blocks.append(spmv(shard, coeffs) / obj.n + obj.lam * w[off:off + di])
        got = np.concatenate(blocks)
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))


@pytest.mark.parametrize("partition", [partition_by_samples, partition_by_features])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_stack_holds_each_shard_block_diagonally(partition, m):
    """Node i's rows of the split matrix, transposed, sit in the cut's rows
    i, i+m, ... and node i's columns: (3*m) x 12 in both layouts, over X of
    3 x 12 data by samples and X' of 12 x 3 data by features, the transposes
    of split matrices whose every block is taller than wide. ``X`` wraps the
    caller's arrays in a block of its own, so its cached operands never land
    on the caller's."""
    by_samples = partition is partition_by_samples
    ds, _ = make_dense_instance(*((3, 12) if by_samples else (12, 3)), seed=14)
    part = partition(ds.X, ds.y, m)
    want = np.zeros((3 * m, 12))
    for i, (shard, off) in enumerate(zip(node_blocks(ds.X, part, by_samples), part.offsets)):
        rows = shard.toarray().T if by_samples else shard.toarray()
        want[i::m, off:off + len(rows)] = rows.T
    split = own_split(part)
    assert np.array_equal(split.cut.toarray(), want) and split.blocks == ()
    assert part.X is not ds.X and part.X.matrix is ds.X.matrix


@pytest.mark.parametrize("offsets, tile_offsets", [((0, 3, 5), (0, 4, 8)), ((0, 4), (0, 2, 2, 11)), ((0,), (0, 6))])
def test_tile_split_reorders_the_cut_node_by_node(monkeypatch, offsets, tile_offsets):
    """The tiled copy holds the cut's rows (``cut_rows``), row block by row
    block, then tile by tile, in its own data and index arrays, and ``order``
    finds row r's tile j in it. Its forward product, put in order, has the
    bits of the cut's; row block i's rows of it (``blocks[i]``, a view),
    multiplied transposed by the block's part of u once per tile
    (``u[reads[i]]``), have the bits of the block's own transposed product.
    With an empty row, an empty tile and a tile running to the last column.
    No copy is made when the cut averages fewer than ``TILE_MIN_NNZ``
    nonzeros per row."""
    rng = np.random.default_rng(len(offsets) + len(tile_offsets))
    Xd = rng.standard_normal((7, 11)) * (rng.random((7, 11)) < 0.5)
    Xd[3] = 0.0
    source = SparseBlock.from_dense(Xd).matrix
    cut, k = SparseBlock(cut_rows(source, tile_offsets)), len(tile_offsets)
    monkeypatch.setattr(partition_module, "TILE_MIN_NNZ", cut.nnz // cut.rows + 1)
    assert tile_split(cut, offsets, k) is None
    monkeypatch.setattr(partition_module, "TILE_MIN_NNZ", cut.nnz // cut.rows)
    blocks, reads, tiled, order = tile_split(cut, offsets, k)
    assert order.shape == (k, 7) and sorted(order.ravel()) == list(range(7 * k))
    assert tiled.nnz == source.nnz and tiled.matrix.indptr.dtype == tiled.matrix.indices.dtype == np.int32
    assert not np.shares_memory(tiled.matrix.data, source.data)
    assert np.array_equal(tiled.toarray()[order.T.ravel()], cut.toarray())
    x, u = rng.standard_normal(11), rng.standard_normal(7)
    assert spmv(tiled, x)[order].T.tobytes() == spmv(cut, x).reshape(7, k).tobytes()
    bounds = (*offsets, 7)
    assert len(blocks) == len(reads) == len(offsets)
    for block, read, start, stop in zip(blocks, reads, bounds, bounds[1:]):
        assert np.array_equal(block.toarray(), tiled.toarray()[start * k:stop * k])
        assert np.shares_memory(block.matrix.data, tiled.matrix.data)
        assert np.array_equal(read, np.tile(np.arange(start, stop), k))
        want = spmv_transpose(SparseBlock(source[start:stop]), u[start:stop])
        assert spmv_transpose(block, u[read]).tobytes() == want.tobytes()
