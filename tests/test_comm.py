import numpy as np
import pytest

from disco.comm import Cluster


class TestBroadcast:
    def test_single_node_still_metered(self):
        cl = Cluster(1)
        reps = cl.broadcast(np.array([1.0, 2.0]))
        assert len(reps) == 1 and np.array_equal(reps[0], [1.0, 2.0])
        assert cl.snapshot_stats().broadcast_rounds == 1

    def test_bytes_are_8_per_element(self):
        cl = Cluster(3)
        cl.broadcast(np.zeros(4))
        assert cl.snapshot_stats().broadcast_bytes == 32

    def test_round_counter(self):
        cl = Cluster(2)
        cl.broadcast(np.zeros(5))
        cl.broadcast(np.zeros(5))
        assert cl.snapshot_stats().broadcast_rounds == 2

    def test_replicas_are_copies(self):
        cl = Cluster(2)
        src = np.array([1.0])
        reps = cl.broadcast(src)
        reps[0][0] = 99.0
        assert src[0] == 1.0 and reps[1][0] == 1.0


class TestReduceAll:
    def test_scalar_sum(self):
        cl = Cluster(3)
        reps = cl.reduce_all([np.array([1.0]), np.array([2.0]), np.array([3.0])])
        assert all(r[0] == 6.0 for r in reps)

    def test_disjoint_support(self):
        cl = Cluster(2)
        reps = cl.reduce_all([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.array_equal(reps[0], [1.0, 1.0]) and np.array_equal(reps[1], [1.0, 1.0])

    def test_length_n_vector_bytes(self):
        n = 17
        cl = Cluster(4)
        cl.reduce_all([np.zeros(n) for _ in range(4)])
        stats = cl.snapshot_stats()
        assert stats.reduceall_bytes == 8 * n and stats.reduceall_rounds == 1

    def test_replicas_bit_identical(self):
        rng = np.random.default_rng(0)
        cl = Cluster(5)
        reps = cl.reduce_all([rng.standard_normal(64) for _ in range(5)])
        for r in reps[1:]:
            assert np.array_equal(r, reps[0])

    def test_sum_is_ascending_node_order(self):
        # left-to-right float accumulation, not pairwise
        contributions = [np.array([1e16]), np.array([1.0]), np.array([-1e16])]
        reps = Cluster(3).reduce_all(contributions)
        expected = (1e16 + 1.0) + -1e16  # == 0.0 in float64
        assert reps[0][0] == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Cluster(2).reduce_all([np.zeros(2), np.zeros(3)])


class TestReduceConcat:
    def test_concatenation(self):
        cl = Cluster(2)
        out = cl.reduce_concat([np.array([1.0, 2.0]), np.array([3.0])])
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_single_node_identity(self):
        cl = Cluster(1)
        out = cl.reduce_concat([np.array([4.0, 5.0])])
        assert np.array_equal(out, [4.0, 5.0])

    def test_bytes_sum_block_sizes(self):
        cl = Cluster(3)
        cl.reduce_concat([np.zeros(2), np.zeros(3), np.zeros(4)])
        stats = cl.snapshot_stats()
        assert stats.reduce_bytes == 8 * 9 and stats.reduce_rounds == 1


class TestStats:
    def test_reset_zeroes_everything(self):
        cl = Cluster(2)
        cl.broadcast(np.zeros(3))
        cl.reduce_all([np.zeros(3), np.zeros(3)])
        cl.reset_stats()
        stats = cl.snapshot_stats()
        assert stats.total_rounds == 0 and stats.total_bytes == 0

    def test_snapshot_is_a_value_copy(self):
        cl = Cluster(2)
        snap = cl.snapshot_stats()
        cl.broadcast(np.zeros(3))
        assert snap.broadcast_rounds == 0
        assert cl.snapshot_stats().broadcast_rounds == 1

    def test_counters_monotone(self):
        cl = Cluster(2)
        prev = cl.snapshot_stats()
        for _ in range(4):
            cl.reduce_all([np.zeros(2), np.zeros(2)])
            cur = cl.snapshot_stats()
            assert cur.reduceall_rounds > prev.reduceall_rounds
            assert cur.reduceall_bytes > prev.reduceall_bytes
            prev = cur


def test_cluster_takes_only_m():
    """The master is node 0 and compute phases run in node order; neither is
    configurable."""
    assert Cluster(3).master == 0
    assert Cluster(3).map_nodes(lambda i: i) == [0, 1, 2]
    with pytest.raises(TypeError):
        Cluster(2, master=1)
    with pytest.raises(TypeError):
        Cluster(2, scheduler="parallel")


def test_cluster_validates_m():
    with pytest.raises(ValueError):
        Cluster(0)
