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

    def test_matrix_payload_named_with_its_shape(self):
        # a (2, 2) payload was once metered as 32 B of traffic
        cl = Cluster(2)
        with pytest.raises(ValueError, match=re.escape("broadcast takes a vector: the payload has shape (2, 2)")):
            cl.broadcast(np.ones((2, 2)))
        assert cl.snapshot_stats() == CommStats()

    def test_scalar_payload_named_with_its_shape(self):
        # a scalar was once metered as 8 B of traffic
        cl = Cluster(2)
        with pytest.raises(ValueError, match=re.escape("broadcast takes a vector: the payload has shape ()")):
            cl.broadcast(3.0)
        assert cl.snapshot_stats() == CommStats()


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


def streamed(contributions, log=None):
    """Yield a fresh copy of each contribution in turn, appending each copy
    to ``log`` before it is handed over."""
    for c in contributions:
        fresh = np.array(c, dtype=np.float64)
        if log is not None:
            log.append(fresh)
        yield fresh


class TestReduceAllStreamed:
    """``reduce_all`` on a generator: it asks for node i's contribution only
    when it gets to it, with the list form's sum, checks and metering."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_sum_is_the_list_form_bitwise(self, m):
        rng = np.random.default_rng(m)
        contributions = [rng.standard_normal(7) * 10.0 ** rng.integers(-8, 9, 7) for _ in range(m)]
        want = Cluster(m).reduce_all(contributions)
        cl = Cluster(m)
        got = cl.reduce_all(streamed(contributions))
        assert got.tobytes() == want.tobytes()
        assert_read_only(got)
        assert cl.snapshot_stats() == CommStats(reduceall_rounds=1, reduceall_bytes=8 * 7)

    def test_each_contribution_is_added_before_the_next_is_asked_for(self):
        """When node i + 1's contribution is asked for (i >= 1), node i's is
        already in the sum: overwriting it then leaves the sum unchanged.
        Node 0's is held until node 1's arrives, so it is left alone."""
        contributions = [np.array([1e16, 1.0]), np.array([1.0, 2.0]), np.array([-1e16, 3.0]), np.array([4.0, 5.0])]
        yielded = []

        def overwriting():
            for c in streamed(contributions, yielded):
                if len(yielded) > 2:
                    yielded[-2][:] = np.nan
                yield c

        got = Cluster(4).reduce_all(overwriting())
        assert got.tobytes() == Cluster(4).reduce_all(contributions).tobytes()
        assert np.isnan(yielded[1]).all() and np.isnan(yielded[2]).all()

    @pytest.mark.parametrize("parts", [0, 1, 3])
    def test_one_contribution_per_node(self, parts):
        cl = Cluster(2)
        with pytest.raises(ValueError, match=f"^expected 2 contributions, got {parts}$"):
            cl.reduce_all(streamed([np.zeros(2)] * parts))
        assert cl.snapshot_stats() == CommStats()

    @pytest.mark.parametrize("contributions, message", [
        ([np.zeros(2), np.zeros((2, 2))], "reduce_all takes vectors: node 1 has shape (2, 2)"),
        ([np.zeros(2), np.zeros(3)], "reduce_all length mismatch: node 0 has 2, node 1 has 3"),
    ], ids=["matrix", "length"])
    def test_bad_contribution_raises_and_meters_nothing(self, contributions, message):
        cl = Cluster(2)
        with pytest.raises(ValueError, match=re.escape(message)):
            cl.reduce_all(streamed(contributions))
        assert cl.snapshot_stats() == CommStats()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_result_never_aliases_a_contribution(self, m):
        yielded = []
        got = Cluster(m).reduce_all(streamed([np.full(3, i + 1.0) for i in range(m)], yielded))
        assert np.array_equal(got, np.full(3, m * (m + 1) / 2))
        assert len(yielded) == m
        for c in yielded:
            assert not np.shares_memory(got, c)
        assert_read_only(got)


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

    @pytest.mark.parametrize("bad", [np.float64(1.0), np.ones((2, 2))])
    @pytest.mark.parametrize("node", [0, 1])
    def test_non_vector_block_named_with_its_shape(self, bad, node):
        # 2-D blocks once came back stacked as a (3, 2) array, metered as 48 B
        blocks = [np.zeros(2), np.zeros(2)]
        blocks[node] = bad
        cl = Cluster(2)
        with pytest.raises(ValueError, match=re.escape(f"node {node} has shape {bad.shape}")):
            cl.reduce_concat(blocks)
        assert cl.snapshot_stats() == CommStats()


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
