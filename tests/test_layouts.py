"""Properties of the two data layouts over random small instances, and the
module-global lookups that let an outside tracer see the solver's layers."""

import dataclasses
import gc
import itertools
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from disco import (
    Cluster,
    CommStats,
    Dataset,
    LossKind,
    Objective,
    PartitionMode,
    SolverConfig,
    SparseBlock,
    disco_outer,
    full_gradient,
    objective_value,
    partition_by_features,
    partition_by_samples,
)
from disco import solver
from disco.harness import gen_synthetic
from disco.linalg import spmv, spmv_transpose
from disco.losses import grad_coeffs
from disco.partition import SamplePartition, balanced_sizes

from conftest import BENCH_DIR, load_discobench, make_dense_instance, newton_step, recorded_solve


def random_instance(data, d, n, loss):
    """Sparse d x n data (possibly with all-zero rows and columns) and labels
    fitting the loss: a planted linear model, or its signs for logistic."""
    density = data.draw(st.sampled_from([0.2, 0.5, 1.0]), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    Xd = rng.standard_normal((d, n)) * (rng.random((d, n)) < density)
    y = Xd.T @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    if loss is LossKind.LOGISTIC:
        y = np.where(y > 0, 1.0, -1.0)
    return Dataset(X=SparseBlock.from_dense(Xd), y=y, d=d, n=n, source="hypothesis")


def draw_m(data, limit):
    """A node count in [1, limit] that often sits at either end."""
    return data.draw(st.one_of(st.just(1), st.just(limit), st.integers(1, limit)), label="m")


def draw_tau_mu(data, d, n, m, mode):
    """A preconditioner sample count below the first feature block's size
    (the low-rank path) or at least that size (the dense path), whichever the
    instance allows, and a shift mu drawn apart from lam."""
    available = balanced_sizes(n, m)[0] if mode is PartitionMode.SAMPLES else n
    d_b = balanced_sizes(d, m)[0]
    low_rank = data.draw(st.booleans(), label="tau < d_b")
    if low_rank and d_b > 1:
        tau = data.draw(st.integers(1, min(d_b - 1, available)), label="tau")
    elif available >= d_b:
        tau = data.draw(st.integers(d_b, available), label="tau")
    else:
        tau = data.draw(st.integers(1, available), label="tau")
    return tau, data.draw(st.floats(0.01, 1.0), label="mu")


# discobench/costmodel.py: the README's collective counts, which every
# benchmark solve is gated on
COSTMODEL = load_discobench("costmodel")


LOSSES = st.sampled_from([LossKind.SQUARE, LossKind.LOGISTIC])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(1, 12), n=st.integers(1, 16), loss=LOSSES)
def test_pcg_layouts_agree(data, d, n, loss):
    """Same Newton direction from both layouts: bitwise at m=1 and for the
    square loss, whose products and dot products both layouts sum over both
    splits in node order; to 1e-8 otherwise."""
    ds = random_instance(data, d, n, loss)
    m = draw_m(data, min(d, n))
    lam = data.draw(st.floats(0.1, 1.0), label="lam")
    tau = data.draw(st.integers(1, n // m), label="tau")  # within the master's sample shard
    cfg = SolverConfig(lam=lam, mu=lam, tau=tau, loss=loss)
    obj = Objective(loss=loss, lam=lam, n=n, d=d)
    w = 0.5 * np.random.default_rng(d * 100 + n).standard_normal(d)
    eps_k = 1e-10 * max(np.linalg.norm(full_gradient(obj, ds.X, ds.y, w)), 1e-300)

    step_s = newton_step(Cluster(m), partition_by_samples(ds.X, ds.y, m), w, eps_k, cfg)
    step_f = newton_step(Cluster(m), partition_by_features(ds.X, ds.y, m), w, eps_k, cfg)
    if m == 1 or loss is LossKind.SQUARE:
        assert np.array_equal(step_s.direction, step_f.direction)
        assert (step_s.delta, step_s.inner_iters) == (step_f.delta, step_f.inner_iters)
    else:
        scale = max(np.linalg.norm(step_s.direction), 1e-300)
        assert np.linalg.norm(step_s.direction - step_f.direction) <= 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 12),
    n=st.integers(1, 16),
    loss=LOSSES,
    mode=st.sampled_from(list(PartitionMode)),
)
def test_comm_stats_match_cost_model(data, d, n, loss, mode):
    """Rounds and bytes equal the README formulas exactly, for every node
    count up to one shard per sample (samples) or per feature (features)."""
    ds = random_instance(data, d, n, loss)
    m = draw_m(data, n if mode is PartitionMode.SAMPLES else d)
    tau, mu = draw_tau_mu(data, d, n, m, mode)
    cfg = SolverConfig(lam=0.2, mu=mu, tau=tau, loss=loss, max_outer=4, partition_mode=mode)
    cluster = Cluster(m)
    result = disco_outer(cluster, ds, cfg)
    stats = cluster.snapshot_stats()
    assert stats == COSTMODEL.expected_stats(mode, d, n, result.grad_evals, COSTMODEL.inner_iters_per_step(result))


SWEEP_N = 1000
SWEEP_D_OVER_N = (0.125, 0.5, 1, 4, 8)
README = Path(__file__).resolve().parents[1] / "README.md"


def byte_ratio_sweep():
    """(d, {mode: (result, stats)}) for both layouts of gen_synthetic(d, 1000,
    0.02, 0.1, 5) at each d/n in ``SWEEP_D_OVER_N``: m=4, lam=mu=1e-2,
    tau=125."""
    rows = []
    for d_over_n in SWEEP_D_OVER_N:
        d = round(d_over_n * SWEEP_N)
        ds = gen_synthetic(d, SWEEP_N, 0.02, 0.1, 5)
        runs = {}
        for mode in PartitionMode:
            cluster = Cluster(4)
            result = disco_outer(cluster, ds, SolverConfig(lam=1e-2, mu=1e-2, tau=125, partition_mode=mode))
            runs[mode] = (result, cluster.snapshot_stats())
        rows.append((d, runs))
    return rows


def per_inner_byte_ratio(d, n):
    """The cost model's feature/sample bytes per inner iteration: a length-n
    reduce_all plus 3 scalars against a length-d broadcast and reduce_all."""
    return (8 * n + 24) / (16 * d)


def sweep_table(sweep):
    """The README's sweep table, line by line, from ``byte_ratio_sweep()``."""
    lines = [
        "| d/n | d | inner (both) | rounds s / f | bytes s / f | byte ratio f/s | (8n+24)/(16d) |",
        "|---|---|---|---|---|---|---|",
    ]
    for d, runs in sweep:
        (res_s, stats_s), (_, stats_f) = runs[PartitionMode.SAMPLES], runs[PartitionMode.FEATURES]
        lines.append(f"| {d / SWEEP_N:g} | {d} | {res_s.inner_iters_total} "
                     f"| {stats_s.total_rounds} / {stats_f.total_rounds} "
                     f"| {stats_s.total_bytes:,} / {stats_f.total_bytes:,} "
                     f"| {stats_f.total_bytes / stats_s.total_bytes:.3f} | {per_inner_byte_ratio(d, SWEEP_N):.3f} |")
    return lines


def test_byte_ratio_sweep_crosses_where_the_cost_model_puts_it():
    """The paper's claim as a curve: across d/n from 1/8 to 8 both layouts
    take the same inner iterations and meet the cost model exactly, and the
    feature layout moves more bytes than the sample layout exactly where the
    cost model's per-iteration ratio exceeds 1 (d below about n/2). Every
    line of the README's table of this sweep is what the sweep prints."""
    above = []
    sweep = byte_ratio_sweep()
    for d, runs in sweep:
        for mode, (result, stats) in runs.items():
            assert result.converged
            per_step = COSTMODEL.inner_iters_per_step(result)
            assert stats == COSTMODEL.expected_stats(mode, d, SWEEP_N, result.grad_evals, per_step)
        (res_s, stats_s), (res_f, stats_f) = runs[PartitionMode.SAMPLES], runs[PartitionMode.FEATURES]
        assert COSTMODEL.inner_iters_per_step(res_s) == COSTMODEL.inner_iters_per_step(res_f)
        above.append(per_inner_byte_ratio(d, SWEEP_N) > 1)
        assert (stats_f.total_bytes > stats_s.total_bytes) == above[-1]
    assert any(above) and not all(above)  # the sweep spans the crossover
    readme = set(README.read_text().splitlines())
    for line in sweep_table(sweep):
        assert line in readme, line


NODE_SWEEP_M = (1, 2, 4, 8)


def node_sweep():
    """(m, {mode: (result, stats)}) for both layouts of gen_synthetic(4000,
    500, 0.02, 0.1, 42) at each m in ``NODE_SWEEP_M``: lam=mu=1e-2, tau=31
    (which fits the master's sample shard up to m=16). Nothing is timed."""
    ds = gen_synthetic(4000, 500, 0.02, 0.1, 42)
    rows = []
    for m in NODE_SWEEP_M:
        runs = {}
        for mode in PartitionMode:
            cluster = Cluster(m)
            result = disco_outer(cluster, ds, SolverConfig(lam=1e-2, mu=1e-2, tau=31, partition_mode=mode))
            runs[mode] = (result, cluster.snapshot_stats())
        rows.append((m, runs))
    return rows


def node_sweep_table(sweep):
    """The README's node-count table, line by line, from ``node_sweep()``."""
    lines = [
        "| m | inner s / f | rounds s / f | bytes s / f | byte ratio f/s |",
        "|---|---|---|---|---|",
    ]
    for m, runs in sweep:
        (res_s, stats_s), (res_f, stats_f) = runs[PartitionMode.SAMPLES], runs[PartitionMode.FEATURES]
        lines.append(f"| {m} | {res_s.inner_iters_total} / {res_f.inner_iters_total} "
                     f"| {stats_s.total_rounds} / {stats_f.total_rounds} "
                     f"| {stats_s.total_bytes:,} / {stats_f.total_bytes:,} "
                     f"| {stats_f.total_bytes / stats_s.total_bytes:.3f} |")
    return lines


def test_node_sweep_meets_the_cost_model_at_every_m():
    """The paper's claim across the node count, at d = 8n: at every m both
    layouts converge in the same Newton steps, meet the cost model exactly
    and the feature layout moves fewer bytes. m reaches the counters only
    through the inner iterations, which grow with the number of
    preconditioner blocks. The layouts' PCG recurrences round differently
    (dot products and Hessian products are summed over other splits), and
    after ~90 inner iterations their residual norms differ by several
    percent, so a stopping test that lands that close to eps_k could end one
    layout's solve one iteration before the other's. With BLAS on one thread
    (conftest.py) none does: the per-step inner counts are equal at every m.
    Every line of the README's table of this sweep is what the sweep
    prints."""
    sweep = node_sweep()
    for m, runs in sweep:
        for mode, (result, stats) in runs.items():
            assert result.converged
            per_step = COSTMODEL.inner_iters_per_step(result)
            assert stats == COSTMODEL.expected_stats(mode, 4000, 500, result.grad_evals, per_step)
        (res_s, stats_s), (res_f, stats_f) = runs[PartitionMode.SAMPLES], runs[PartitionMode.FEATURES]
        steps_s, steps_f = COSTMODEL.inner_iters_per_step(res_s), COSTMODEL.inner_iters_per_step(res_f)
        assert len(steps_s) == len(steps_f)
        assert steps_s == steps_f, (m, steps_s, steps_f)
        assert stats_f.total_bytes < stats_s.total_bytes
    readme = set(README.read_text().splitlines())
    for line in node_sweep_table(sweep):
        assert line in readme, line


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_square_solves_are_bitwise_equal_in_both_layouts(m):
    """A square-loss solve continues one CG run across the Newton steps and
    sums every product and dot product over both layouts' splits in node
    order, so both layouts take the same steps bit for bit: the same ``w``
    and the same inner iterations per step, each meeting the cost model
    exactly. On 30 x 14 and 14 x 30 data, whose splits are uneven at m = 3,
    4 and 8, the feature layout cuts X' of 30 x 14 at m <= 2 and the sample
    layout X of 14 x 30 at m <= 2; every other split is streamed node by
    node."""
    streamed = {mode: set() for mode in PartitionMode}
    for d, n in ((30, 14), (14, 30)):
        rng = np.random.default_rng(d * 1000 + n * 10 + m)
        Xd = rng.standard_normal((d, n)) * (rng.random((d, n)) < 0.5)
        ds = Dataset(X=SparseBlock.from_dense(Xd), y=Xd.T @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n),
                     d=d, n=n, source="square")
        runs = {}
        for mode in PartitionMode:
            cluster, parts = Cluster(m), []
            partition = getattr(solver, f"partition_by_{mode.value}")
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, f"partition_by_{mode.value}",
                              lambda *args: parts.append(partition(*args)) or parts[-1])
                result = disco_outer(cluster, ds, SolverConfig(lam=0.05, mu=0.05, tau=2, partition_mode=mode))
            assert result.converged
            per_step = COSTMODEL.inner_iters_per_step(result)
            assert cluster.snapshot_stats() == COSTMODEL.expected_stats(mode, d, n, result.grad_evals, per_step)
            runs[mode] = (result.w.tobytes(), per_step)
            streamed[mode].add(parts[0].cut is None)
        assert runs[PartitionMode.SAMPLES] == runs[PartitionMode.FEATURES], (d, n)
    assert streamed == {mode: {False, True} if m <= 2 else {True} for mode in PartitionMode}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 12),
    n=st.integers(1, 16),
    loss=LOSSES,
    mode=st.sampled_from(list(PartitionMode)),
)
def test_damped_newton_converges_monotonically(data, d, n, loss, mode):
    """Under the default ``max_outer`` every run converges, and the damped step
    never raises the objective by more than roundoff, for inner tolerances
    from near-exact to loose."""
    ds = random_instance(data, d, n, loss)
    m = draw_m(data, n if mode is PartitionMode.SAMPLES else d)
    lam = data.draw(st.floats(0.1, 1.0), label="lam")
    tau, mu = draw_tau_mu(data, d, n, m, mode)
    theta = 10.0 ** data.draw(st.floats(-8.0, math.log10(0.5)), label="log10 theta")
    cfg = SolverConfig(lam=lam, mu=mu, tau=tau, loss=loss, theta=theta, partition_mode=mode)
    result, _, iterates = recorded_solve(Cluster(m), ds, cfg)

    assert result.converged
    obj = Objective(loss=loss, lam=lam, n=n, d=d)
    values = [objective_value(obj, ds.X, ds.y, w) for w in [np.zeros(d)] + iterates]
    for f_prev, f_next in zip(values, values[1:]):
        assert f_next <= f_prev * (1 + 1e-12)


def node_slices(total, m):
    """The balanced split of ``total`` into min(total, m) contiguous parts."""
    ends = np.cumsum([0, *balanced_sizes(total, min(total, m))])
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def per_shard_product(X, part, u, coeffs, lam, loss):
    """(X c)/n + lam*u and X'u, c = coeffs(X'u), with one kernel call per
    shard, cut from X, and the collectives' summation order (ascending node
    order): the reference that the layouts' products must match bit for bit.
    A logistic product splits only what its layout's collective sums (X'u
    over the features, X c over the samples) and makes the other product
    one whole row or column of X per output element; a square-loss product
    splits both, in either layout, as the two layouts' collectives do."""
    m, by_samples = len(part.sizes), isinstance(part, SamplePartition)
    if loss is LossKind.LOGISTIC and by_samples:
        z = np.concatenate([spmv_transpose(SparseBlock(X.matrix[:, node]), u) for node in node_slices(X.cols, m)])
    else:
        partials = [spmv_transpose(SparseBlock(X.matrix[node, :]), u[node]) for node in node_slices(X.rows, m)]
        z = sum(partials[1:], partials[0])
    c = coeffs(z)
    if loss is LossKind.LOGISTIC and not by_samples:
        return np.concatenate([spmv(SparseBlock(X.matrix[node, :]), c) / part.n + lam * u[node]
                               for node in node_slices(X.rows, m)]), z
    terms = [spmv(SparseBlock(X.matrix[:, node]), c[node]) / part.n for node in node_slices(X.cols, m)]
    return sum(terms[1:], terms[0]) + lam * u, z


@pytest.mark.parametrize("loss", list(LossKind))
@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("d, n", [(23, 7), (7, 23), (12, 12), (16, 20)])
def test_stacked_products_are_the_per_shard_products_bitwise(d, n, m, mode, loss):
    """The gradient, margins and Hessian product that each layout computes
    equal a per-shard loop bit for bit: its own split's partial products,
    one call per node's row block of the split matrix (X' by samples, X by
    features) streamed into the reduce or, when a block is taller than wide,
    one forward product with the split matrix's transpose cut at the node
    offsets, and the other product, over the other layout's split (the
    ``mirror``) by the same rule: in the sample layout X's row blocks, or X'
    cut at the feature offsets; in the feature layout X' row blocks, or X
    cut at the sample offsets. A square-loss mirror has min(size, m) parts,
    a logistic one a single part: one kernel call over all of X or X'.
    All on uneven splits, on blocks with more rows than columns and with no
    more (both paths run in both layouts: the sample layout cuts X on 7 x 23
    at m <= 3 and on 16 x 20 at m = 1, the feature layout cuts X' on 23 x 7
    at m <= 3, where its blocks are 8, 8 and 7 rows at m=3, and neither on
    12 x 12 square at m >= 2; a square-loss sample layout cuts X' on 23 x 7
    at m <= 3, and on 16 x 20, where n/m < d <= n at m >= 2, a square-loss
    feature layout streams X' row blocks), and with an empty row, an
    all-empty feature shard at m=5 and an empty column. Where every block of
    a split by samples would be square (12 x 12 at m = 1, a logistic mirror
    by samples on 12 x 12), the split is the cut of X, which reads X's own
    arrays. No block or cut is taller than wide, so none builds a transposed
    copy."""
    rng = np.random.default_rng(d * 100 + m)
    Xd = rng.standard_normal((d, n)) * (rng.random((d, n)) < 0.5)
    Xd[[3, 4]] = 0.0
    Xd[:, 4] = 0.0
    y = Xd.T @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    if loss is LossKind.LOGISTIC:
        y = np.where(y > 0, 1.0, -1.0)
    X = SparseBlock.from_dense(Xd)
    cfg = SolverConfig(lam=0.3, mu=0.3, tau=1, loss=loss, partition_mode=mode)
    if mode is PartitionMode.SAMPLES:
        layout = solver._Layout(Cluster(m), partition_by_samples(X, y, m), cfg)
    else:
        layout = solver._Layout(Cluster(m), partition_by_features(X, y, m), cfg)
    w, u = rng.standard_normal(d), rng.standard_normal(d)

    grad, margins = layout.gradient(w)
    want_grad, want_margins = per_shard_product(X, layout.part, w, lambda z: grad_coeffs(loss, z, y), 0.3, loss)
    assert grad.tobytes() == want_grad.tobytes() and margins.tobytes() == want_margins.tobytes()
    h = layout.curvature(margins)
    want_hu, _ = per_shard_product(X, layout.part, u, lambda z: h * z, 0.3, loss)
    assert layout.hess_vec(u, h).tobytes() == want_hu.tobytes()
    # each split, the partition's and the other layout's, cuts only for a
    # block taller than wide, or by samples for blocks all square: X by
    # samples, X' by features
    mirror, by_samples = layout.mirror, mode is PartitionMode.SAMPLES
    total = d if by_samples else n
    assert len(mirror.nodes) == (1 if loss is LossKind.LOGISTIC else min(total, m))
    splits = [(layout.part.sizes, layout.part.blocks, layout.part.cut, by_samples),
              ([node.stop - node.start for node in mirror.nodes], mirror.blocks, mirror.cut, not by_samples)]
    for sizes, blocks, cut, samples in splits:
        cols = d if samples else n
        assert (cut is None) == (min(sizes) < cols if samples else max(sizes) <= cols) == (blocks != ())
        for block in [cut] if cut is not None else blocks:
            assert block.rows <= block.cols
        if cut is not None:
            assert "matrix_t" not in vars(cut)


# A feature-layout solve whose every block (3 x 24) is no taller than wide:
# its iterate, bit for bit, and its counters. Node-by-node products must
# keep every bit.
STREAMED_SOLVE_W = [
    "-0x1.f463e82c7227ap-3", "-0x1.470a5fd8a19b6p-1", "0x1.16440ab6d16e0p-3",
    "0x1.6ff68dffec653p-2", "0x1.a5ee5321cbfb8p-4", "0x1.40b7972901efap-2",
    "0x1.d99034fdd6b77p-2", "0x1.7cad6a8ddc33ep-4", "-0x1.4063608d85651p-3",
]
STREAMED_SOLVE_STATS = CommStats(reduce_rounds=2, reduceall_rounds=41, reduce_bytes=144, reduceall_bytes=4016)


def test_streamed_feature_solve_keeps_the_stacked_bits():
    ds, _ = make_dense_instance(d=9, n=24, seed=231)
    cluster = Cluster(3)
    result = disco_outer(cluster, ds, SolverConfig(lam=0.1, mu=0.1, tau=2, partition_mode=PartitionMode.FEATURES))
    assert result.converged
    assert [x.hex() for x in result.w] == STREAMED_SOLVE_W
    assert cluster.snapshot_stats() == STREAMED_SOLVE_STATS
    assert (result.inner_iters_total, result.updates) == (11, 7)


# Sample-layout solves of 9 x 24 data, whose every node holds an 8 x 9 block
# of X' (no taller than wide: node by node), and of 9 x 30 data (10 x 9
# blocks: one forward product with X cut at the sample offsets): the
# iterate, bit for bit, and the counters. Both paths must keep every bit; the 9 x 24 solve has the bits of
# the feature layout's above.
SAMPLE_SOLVES = {
    "streamed": (24, STREAMED_SOLVE_W,
                 CommStats(broadcast_rounds=19, reduceall_rounds=19, broadcast_bytes=1368, reduceall_bytes=1368), (11, 7)),
    "stacked": (30, [
        "-0x1.15669ac386e37p-3", "-0x1.b121d2e1fae8ep-4", "-0x1.eba58314702afp-4",
        "-0x1.8cb4546becad3p-5", "0x1.ecce46886dbb0p-2", "0x1.eb7fbee9965bfp-6",
        "0x1.2ca1d279b4990p-2", "-0x1.49de919c07950p-2", "-0x1.8a81542ad09e4p-7",
    ], CommStats(broadcast_rounds=18, reduceall_rounds=18, broadcast_bytes=1296, reduceall_bytes=1296), (11, 6)),
}


@pytest.mark.parametrize("path", SAMPLE_SOLVES)
def test_sample_solve_keeps_the_bits_of_the_sample_stack(path):
    n, w, stats, iters = SAMPLE_SOLVES[path]
    ds, _ = make_dense_instance(d=9, n=n, seed=231)
    assert (partition_by_samples(ds.X, ds.y, 3).cut is None) == (path == "streamed")
    cluster = Cluster(3)
    result = disco_outer(cluster, ds, SolverConfig(lam=0.1, mu=0.1, tau=2, partition_mode=PartitionMode.SAMPLES))
    assert result.converged
    assert [x.hex() for x in result.w] == w
    assert cluster.snapshot_stats() == stats
    assert (result.inner_iters_total, result.updates) == iters


# Logistic solves restart PCG at every Newton step and sum every product in
# their own layout's order: the iterate, bit for bit, and the counters of a
# streamed solve in each layout (9 x 24 data) and of a sample-layout solve
# over X cut at the sample offsets (9 x 30).
LOGISTIC_SOLVES = {
    "samples-streamed": (PartitionMode.SAMPLES, 24, [
        "-0x1.77aeada9f4f47p-1", "-0x1.b0ef6cbef7670p-1", "0x1.712fc3dc58536p-6",
        "0x1.fb3d7a092ab40p-3", "-0x1.e502e1b80e667p-3", "0x1.f0bf240607271p-4",
        "0x1.6649b34c40138p-1", "-0x1.489271734e405p-3", "-0x1.eb7efb9a52eb9p-2",
    ], CommStats(broadcast_rounds=57, reduceall_rounds=57, broadcast_bytes=4104, reduceall_bytes=4104), (50, 6)),
    "samples-stacked": (PartitionMode.SAMPLES, 30, [
        "-0x1.9ba63ac6af7a2p-3", "-0x1.e07d071dd3f3ep-4", "-0x1.53327a84e6b69p-2",
        "-0x1.02824d24bad27p-2", "0x1.b0072ec242038p-1", "-0x1.70170977bce73p-6",
        "0x1.4ef03e7c531bap-1", "-0x1.1d0723358cb90p-2", "-0x1.81051103ba549p-5",
    ], CommStats(broadcast_rounds=51, reduceall_rounds=51, broadcast_bytes=3672, reduceall_bytes=3672), (45, 5)),
    "features-streamed": (PartitionMode.FEATURES, 24, [
        "-0x1.77aeada9f4f47p-1", "-0x1.b0ef6cbef766fp-1", "0x1.712fc3dc58539p-6",
        "0x1.fb3d7a092ab40p-3", "-0x1.e502e1b80e665p-3", "0x1.f0bf240607270p-4",
        "0x1.6649b34c40138p-1", "-0x1.489271734e406p-3", "-0x1.eb7efb9a52ebap-2",
    ], CommStats(reduce_rounds=6, reduceall_rounds=157, reduce_bytes=432, reduceall_bytes=12592), (50, 6)),
}


@pytest.mark.parametrize("case", LOGISTIC_SOLVES)
def test_logistic_solves_keep_their_bits(case):
    mode, n, w, stats, iters = LOGISTIC_SOLVES[case]
    ds, _ = make_dense_instance(d=9, n=n, seed=231, loss=LossKind.LOGISTIC, labels="sign")
    cluster = Cluster(3)
    cfg = SolverConfig(lam=0.1, mu=0.1, tau=2, loss=LossKind.LOGISTIC, partition_mode=mode)
    result = disco_outer(cluster, ds, cfg)
    assert result.converged
    assert [x.hex() for x in result.w] == w
    assert cluster.snapshot_stats() == stats
    assert (result.inner_iters_total, result.updates) == iters


def sparse_objects():
    """Every live scipy sparse array and ``SparseBlock``."""
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, (sparse.sparray, SparseBlock))]


def data_root(array):
    """The array that owns ``array``'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_feature_solve_keeps_one_copy_of_the_data(monkeypatch):
    """A solve in either layout and with either loss multiplies through its
    partition's X and the operand of its partial products, built with the
    partition by ``split_rows``: each node's rows of the split matrix (X' by
    samples, X by features) or, when a block is taller than wide or, by
    samples, when every block is square, the split matrix's transpose cut at
    the node offsets; and through the other layout's split, made by the same
    rule (into m parts for the square loss, one for the logistic loss), and
    the Woodbury cut of the preconditioner's slices, both kept in the
    partition's cache. The partition's fields hold no sparse matrix besides X
    and its blocks or cut, the caller's data block caches no product
    operand, and the sparse arrays a solve leaves alive are those operands,
    their wrappers and the operands cached on them; no block or cut is
    taller than wide, and no cut builds a transposed operand. The blocks and
    cuts hold the data and index arrays of X or of X' in CSR, and so does
    every other sparse array, but for the Woodbury cut of data no taller than
    wide, which holds its own CSR copy of X's first tau columns, transposed.
    X' in CSR is the one copy of X's nonzeros a solve may make: X's cached
    transposed operand when X is taller than wide, and, at d == n, what the
    row blocks of a split of the 30 samples into 3 parts view (the sample
    partition's, the square-loss feature layout's mirror). A logistic
    solve's one-part split of the samples at d == n is X itself, cut once:
    no copy."""
    data = {
        "tall": gen_synthetic(120, 20, 0.2, 0.1, 3),  # X is taller than wide: its transposed operand is a copy
        "wide": gen_synthetic(20, 120, 0.2, 0.1, 3),  # feature blocks of 7, 7 and 6 rows: each node's own product
        "square": gen_synthetic(30, 30, 0.2, 0.1, 3),  # row blocks of 10 x 30 of X by features, of X' by samples
    }
    for loss, mode, shape in itertools.product(LossKind, PartitionMode, data):
        ds, logistic, by_samples = data[shape], loss is LossKind.LOGISTIC, mode is PartitionMode.SAMPLES
        if logistic:
            ds = Dataset(X=ds.X, y=np.where(ds.y > 0, 1.0, -1.0), d=ds.d, n=ds.n, source=ds.source)
        case = (loss, mode, shape)
        parts = []
        name = f"partition_by_{mode.value}"
        partition = getattr(solver, name)
        before = sparse_objects()  # held, so that no new object reuses an id
        with monkeypatch.context() as patch:
            patch.setattr(solver, name, lambda *args: parts.append(partition(*args)) or parts[-1])
            cfg = SolverConfig(lam=0.1, mu=0.1, tau=5, loss=loss, partition_mode=mode)
            assert disco_outer(Cluster(3), ds, cfg).converged, case
        (part,) = parts
        cut = part.cut is not None
        assert cut == (shape == ("wide" if by_samples else "tall")), case
        fields = {f.name: getattr(part, f.name) for f in dataclasses.fields(part)}
        held = [k for k, v in fields.items() if any(isinstance(o, (sparse.sparray, SparseBlock))
                                                     for o in (v if isinstance(v, tuple) else (v,)))]
        assert held == (["X", "cut"] if cut else ["X", "blocks"]), case
        assert "matrix_t" not in vars(ds.X)
        key = ("mirror", 1 if logistic else 3)
        assert set(part.cache) == {("curvature_slices", 5), key}, case
        kept, mirror = part.cache[("curvature_slices", 5)], part.cache[key]
        assert kept.x is not None  # tau = 5 is below every block
        operands = [part.cut] if cut else list(part.blocks)
        other = [mirror.cut] if mirror.cut is not None else list(mirror.blocks)
        for block in operands + other:  # blocks multiply transposed, cuts forward
            assert ("matrix_t" in vars(block)) != (block is part.cut or block is mirror.cut), case
        assert kept.x.rows <= kept.x.cols and set(vars(kept.x)) == {"matrix", "matrix_t"}
        for block in [*operands, *other, kept.x]:
            assert block.rows <= block.cols
        allowed = []
        for block in [part.X, *operands, *other, kept.x]:
            allowed += [block, block.matrix, vars(block).get("matrix_t")]
        seen = {id(o) for o in before}
        new = [o for o in sparse_objects() if id(o) not in seen]
        # nothing else: what is new is the partition's operands and the Woodbury cut
        assert {id(o) for o in new} <= {id(o) for o in allowed}, (case, [type(o) for o in new])
        assert {*map(id, operands + other + [kept.x])} <= {id(o) for o in new}

        # X for a cut by samples or row blocks by features, else X' in CSR
        reads_x = [(block, by_samples == cut) for block in operands]
        reads_x += [(block, (not by_samples) == (mirror.cut is not None)) for block in other]
        for block, from_x in reads_x:
            if from_x:
                assert np.shares_memory(block.matrix.data, ds.X.matrix.data), case
                assert np.shares_memory(block.matrix.indices, ds.X.matrix.indices), case
        reads_xt = [block for block, from_x in reads_x if not from_x]
        assert bool(reads_xt) == (shape == "tall" or shape == "square" and (by_samples or not logistic)), case
        sources = [ds.X.matrix.data]
        if shape == "tall":
            xt = part.X.matrix_t  # X' in CSR, X's transposed operand
            assert xt.format == "csr"
            reads_xt.append(kept.x)
        else:
            assert kept.x.nnz == ds.X.matrix[:, :5].nnz
            sources.append(kept.x.matrix.data)
            xt = reads_xt[0].matrix if reads_xt else None  # a row block of X' in CSR
        if reads_xt:  # all of them over the data and index arrays of one X' in CSR
            xt_data, xt_indices = data_root(xt.data), data_root(xt.indices)
            assert xt_data.size == xt_indices.size == ds.X.nnz, case
            for block in reads_xt:
                assert np.shares_memory(block.matrix.data, xt_data), case
                assert np.shares_memory(block.matrix.indices, xt_indices), case
            sources.append(xt_data)
        copies = [o for o in new if isinstance(o, sparse.sparray)]
        assert all(any(np.shares_memory(o.data, data) for data in sources) for o in copies), case


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["workloads"]]
)
def test_benchmark_gate_passes_in_process(monkeypatch, workload, trace):
    """Each benchmark workload, at a tenth of its size, passes the gate every
    benchmark solve is held to: convergence, the gradient norm recomputed on
    the full data, the README cost model and counters repeated across the
    solves of one dataset. The traced run also wraps every name the tracer
    lists and checks that the layers' self times add up to the solve. The
    benchmark's modules are imported from their directory without writing to
    it, and unloaded afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the value run.py sets on import; the old state comes back on exit
    modules = ("run", "workloads", "costmodel", "reference", "tracer")
    for name in modules:
        monkeypatch.delitem(sys.modules, name, raising=False)  # a module of that name is put back on exit
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    try:
        import run

        _, result = run.run(workload, 3, 1.0, trace, scale=0.1)
    finally:
        for name in modules:
            sys.modules.pop(name, None)
    assert result["correct"] and result["failed"] == 0, result


def test_the_suite_runs_blas_on_one_thread():
    """conftest.py pins BLAS to one thread before numpy loads, as the
    benchmark does: every loaded OpenBLAS reports one thread, so that the
    iterates and counters that tests pin do not depend on the host's cores."""
    threads = load_discobench("run").blas_threads()
    if not threads:
        pytest.skip("no OpenBLAS is loaded: its thread count is the only one read here")
    assert set(threads.values()) == {1}, threads


def load_tracer():
    """discobench/tracer.py, loaded from its file: its TRACED table lists the
    names it replaces to time the solver's layers."""
    return load_discobench("tracer")


@pytest.mark.parametrize("mode,pcg,build,partition", [
    (PartitionMode.SAMPLES, "pcg_samples", "build_preconditioner", "partition_by_samples"),
    (PartitionMode.FEATURES, "pcg_features", "build_preconditioner_features", "partition_by_features"),
])
def test_tracer_names_are_looked_up_at_call_time(monkeypatch, mode, pcg, build, partition):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, _ in load_tracer().TRACED:
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    ds, _ = make_dense_instance(d=8, n=20, seed=160, loss=LossKind.LOGISTIC, labels="sign")
    cfg = SolverConfig(lam=0.1, mu=0.1, tau=5, loss=LossKind.LOGISTIC, partition_mode=mode)
    result = solver.disco_outer(Cluster(2), ds, cfg)

    assert result.updates > 0
    # the logistic preconditioner is rebuilt before every Newton step
    assert calls[pcg] == calls[build] == result.updates
    assert calls["disco_outer"] == calls[partition] == 1
    for name in ("spmv_transpose", "grad_coeffs", "hess_coeffs", "apply", "reduce_all"):
        assert calls[name] > 0, name
    # forward: the feature layout's X c, over its one-part split of the
    # samples (X cut at one offset), and the sample layout's partial
    # products, over X cut at the sample offsets (X' has blocks of 10 x 8)
    assert calls["spmv"] > 0
    # no product or preconditioner apply maps over the nodes; only the
    # feature layout's metered dot products do
    assert (calls["map_nodes"] > 0) == (mode is PartitionMode.FEATURES)
    assert calls["apply_block"] == 0


@pytest.mark.parametrize("d, n, streamed", [(9, 24, True), (30, 9, False)], ids=["streamed", "stacked"])
def test_tracer_sees_every_nonzero_of_the_partial_margins(monkeypatch, d, n, streamed):
    """The benchmark tracer times ``linalg.spmv`` and ``linalg.spmv_transpose``
    by wrapping ``solver.spmv`` and ``solver.spmv_transpose``. Each layout's
    partial products, the feature layout's margins on d x n data and the
    sample layout's data terms on n x d data, whose X' has the same shape,
    call ``spmv_transpose`` once per node per product, on the node's own
    block in node order, when every block is no taller than wide; otherwise
    ``spmv`` once per product, on the split matrix's transpose cut at the
    node offsets. The other product runs over the other layout's split, in
    the sample layout before its partial products and in the feature layout
    after them. A logistic solve splits it into one part: ``spmv`` once on
    X cut at its one offset (9 x 24 data by features) or on X' so cut
    (24 x 9 data by samples), ``spmv_transpose`` once on X' as one row block
    (30 x 9 data by features) or on X so (9 x 30 data by samples). A
    square-loss solve splits it
    into m parts, whose blocks are no taller than wide here:
    ``spmv_transpose`` on each feature block (3 x 30 or 8 x 9) in the sample
    layout, on each row block of X' (8 x 9 or 3 x 30) in the feature layout.
    Either way the nonzeros of each product add up to X's, and those of
    ``spmv`` and ``spmv_transpose`` together to twice X's per product."""
    m = 3
    for loss, mode in itertools.product(LossKind, PartitionMode):
        shape = (d, n) if mode is PartitionMode.FEATURES else (n, d)
        labels = "sign" if loss is LossKind.LOGISTIC else "regression"
        ds, _ = make_dense_instance(*shape, seed=231, loss=loss, labels=labels)
        name = f"partition_by_{mode.value}"
        parts, operands = [], []
        tracer = load_tracer().Tracer()
        with tracer.installed(), monkeypatch.context() as patch:
            partition = getattr(solver, name)
            for kernel in ("spmv", "spmv_transpose"):
                traced = getattr(solver, kernel)
                patch.setattr(solver, kernel, lambda block, x, traced=traced: operands.append(block) or traced(block, x))
            patch.setattr(solver, name, lambda *args: parts.append(partition(*args)) or parts[-1])
            cfg = SolverConfig(lam=0.1, mu=0.1, tau=2, loss=loss, partition_mode=mode)
            result = solver.disco_outer(Cluster(m), ds, cfg)
        assert result.converged
        products = result.grad_evals + result.inner_iters_total
        (part,) = parts
        assert (part.cut is None) == streamed, mode
        partials = list(part.blocks) if streamed else [part.cut]
        parts_other = 1 if loss is LossKind.LOGISTIC else m
        mirror = part.cache[("mirror", parts_other)]
        assert len(mirror.nodes) == parts_other and (mirror.cut is not None) == (parts_other == 1 and streamed)
        forward = mirror.cut is not None
        other = [mirror.cut] if forward else list(mirror.blocks)
        per_product = partials + other if mode is PartitionMode.FEATURES else other + partials
        assert list(map(id, operands)) == [id(o) for o in per_product] * products, (loss, mode)
        spmv_calls = (forward + (not streamed)) * products  # each over all of X's nonzeros
        assert tracer.calls["linalg.spmv"] == spmv_calls and tracer.nnz["linalg.spmv"] == spmv_calls * ds.X.nnz
        assert tracer.calls["linalg.spmv_transpose"] == len(operands) - spmv_calls
        assert tracer.nnz["linalg.spmv"] + tracer.nnz["linalg.spmv_transpose"] == 2 * products * ds.X.nnz


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_layouts.py prints the README's two sweep tables
    print("\n".join(sweep_table(byte_ratio_sweep())))
    print()
    print("\n".join(node_sweep_table(node_sweep())))
