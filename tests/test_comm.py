import dataclasses
import re

import numpy as np
import pytest

from disco.comm import Cluster, CommStats


def assert_read_only(value):
    assert isinstance(value, np.ndarray) and not value.flags.writeable
    with pytest.raises(ValueError):
        value[0] = 99.0


class TestBroadcast:
    def test_single_node_still_metered(self):
        cl = Cluster(1)
        got = cl.broadcast(np.array([1.0, 2.0]))
        assert np.array_equal(got, [1.0, 2.0])
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

    def test_result_is_a_read_only_copy(self):
        cl = Cluster(2)
        src = np.array([1.0, 2.0])
        got = cl.broadcast(src)
        assert np.array_equal(got, src)
        assert_read_only(got)
        src[0] = -5.0  # a later write to the source does not reach the nodes
        assert np.array_equal(got, [1.0, 2.0])


class TestReduceAll:
    def test_scalar_sum(self):
        cl = Cluster(3)
        got = cl.reduce_all([np.array([1.0]), np.array([2.0]), np.array([3.0])])
        assert np.array_equal(got, [6.0])

    def test_disjoint_support(self):
        cl = Cluster(2)
        got = cl.reduce_all([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.array_equal(got, [1.0, 1.0])

    def test_result_is_a_read_only_sum(self):
        contributions = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        got = Cluster(2).reduce_all(contributions)
        assert np.array_equal(got, [4.0, 6.0])
        assert_read_only(got)
        contributions[0][0] = -5.0  # not even node 0's contribution aliases the sum
        assert np.array_equal(got, [4.0, 6.0])

    def test_length_n_vector_bytes(self):
        n = 17
        cl = Cluster(4)
        cl.reduce_all([np.zeros(n) for _ in range(4)])
        stats = cl.snapshot_stats()
        assert stats.reduceall_bytes == 8 * n and stats.reduceall_rounds == 1

    def test_sum_is_ascending_node_order(self):
        # left-to-right float accumulation, not pairwise
        contributions = [np.array([1e16]), np.array([1.0]), np.array([-1e16])]
        got = Cluster(3).reduce_all(contributions)
        expected = (1e16 + 1.0) + -1e16  # == 0.0 in float64
        assert got[0] == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Cluster(2).reduce_all([np.zeros(2), np.zeros(3)])

    @pytest.mark.parametrize("bad", [np.float64(1.0), np.zeros((2, 2))])
    @pytest.mark.parametrize("node", [0, 1])
    def test_non_vector_contribution_named_with_its_shape(self, bad, node):
        contributions = [np.zeros(2), np.zeros(2)]
        contributions[node] = bad
        with pytest.raises(ValueError, match=re.escape(f"node {node} has shape {bad.shape}")):
            Cluster(2).reduce_all(contributions)

    def test_single_node_returns_a_read_only_copy(self):
        contribution = np.array([1.0, 2.0])
        got = Cluster(1).reduce_all([contribution])
        assert np.array_equal(got, [1.0, 2.0])
        assert_read_only(got)
        assert not np.shares_memory(got, contribution)


@pytest.mark.parametrize("op", ["reduce_all", "reduce_concat"])
@pytest.mark.parametrize("parts", [1, 3])
def test_one_part_per_node(op, parts):
    with pytest.raises(ValueError, match=f"expected 2 .*, got {parts}"):
        getattr(Cluster(2), op)([np.zeros(2)] * parts)


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
        cl.reduce_all([np.zeros(2), np.zeros(2)])
        cl.reduce_concat([np.zeros(1), np.zeros(4)])
        later = cl.snapshot_stats()
        for field in dataclasses.fields(CommStats):
            assert getattr(snap, field.name) == 0, field.name
            assert getattr(later, field.name) > 0, field.name

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
    """Compute phases run in node order and node 0 is the master; neither is
    configurable."""
    assert Cluster(3).map_nodes(lambda i: i) == [0, 1, 2]
    with pytest.raises(TypeError):
        Cluster(2, master=1)
    with pytest.raises(TypeError):
        Cluster(2, scheduler="parallel")


def test_cluster_validates_m():
    with pytest.raises(ValueError, match="node count must be >= 1"):
        Cluster(0)


@pytest.mark.parametrize("m", [2.0, 2.5, True, "2", None])
def test_cluster_rejects_a_node_count_that_is_not_an_integer(m):
    # Cluster(2.0) used to build and fail only at its first map_nodes
    with pytest.raises(ValueError, match="node count must be an integer"):
        Cluster(m)
