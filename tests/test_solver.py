import dataclasses
import gc
import importlib
import itertools
import math
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dpotri

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
    pcg_features,
    pcg_samples,
    solver,
)
from disco.harness import gen_synthetic
from disco.losses import grad_coeffs, hess_coeffs
from disco.partition import balanced_sizes
from disco.solver import (
    BlockPreconditioner,
    _FeatureLayout,
    _SampleLayout,
    _curvature_slices,
    _invert_blocks,
    build_preconditioner,
    build_preconditioner_features,
    damped_update,
)

from conftest import inner_steps, make_dense_instance, newton_step, preconditioned_residuals, recorded_solve
from oracles import DenseNewtonOracle, hess_vec_dense, ridge_closed_form


def ridge_config(lam=0.1, mu=1e-3, tau=None, theta=1e-4, mode=PartitionMode.SAMPLES, **kw):
    return SolverConfig(lam=lam, mu=mu, tau=tau, theta=theta, partition_mode=mode, **kw)


def brute_force_curvature(Xd, h, tau, mu):
    """Independent assembly of the subsampled curvature matrix from the first
    tau sample outer products."""
    d = Xd.shape[0]
    P = np.zeros((d, d))
    for j in range(tau):
        P += h[j] * np.outer(Xd[:, j], Xd[:, j])
    return P / tau + mu * np.eye(d)


class TestPreconditioner:
    def test_matches_brute_force_assembly(self):
        ds, _ = make_dense_instance(d=8, n=8, seed=70, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.05, tau=4)
        spart = partition_by_samples(ds.X, ds.y, 1)
        P = build_preconditioner(cfg, spart)
        expected = brute_force_curvature(ds.X.toarray(), np.full(8, 2.0), tau=4, mu=0.05)
        rng = np.random.default_rng(71)
        for _ in range(3):
            r = rng.standard_normal(8)
            assert np.linalg.norm(P.apply(r) - np.linalg.solve(expected, r)) < 1e-12

    def test_full_subsample_with_mu_eq_lam_reproduces_hessian(self):
        # tau = n and mu = lam make the estimate coincide with H for square loss
        ds, obj = make_dense_instance(d=6, n=10, seed=72, lam=0.3)
        cfg = ridge_config(lam=0.3, mu=0.3, tau=10)
        spart = partition_by_samples(ds.X, ds.y, 1)
        P = build_preconditioner(cfg, spart)
        H = DenseNewtonOracle(ds, obj).hessian(np.zeros(6))
        r = np.random.default_rng(73).standard_normal(6)
        assert np.linalg.norm(P.apply(r) - np.linalg.solve(H, r)) < 1e-10

    def test_large_mu_is_scaled_identity(self):
        ds, _ = make_dense_instance(d=5, n=8, seed=74)
        mu = 1e9
        cfg = ridge_config(mu=mu, tau=8)
        spart = partition_by_samples(ds.X, ds.y, 1)
        P = build_preconditioner(cfg, spart)
        r = np.random.default_rng(75).standard_normal(5)
        assert np.linalg.norm(P.apply(r) - r / mu) <= 1e-8 * np.linalg.norm(r) / mu

    def test_multiply_back(self):
        ds, _ = make_dense_instance(d=6, n=9, seed=76)
        cfg = ridge_config(mu=0.02, tau=6)
        spart = partition_by_samples(ds.X, ds.y, 1)
        P = build_preconditioner(cfg, spart)
        dense = brute_force_curvature(ds.X.toarray(), np.full(9, 2.0), tau=6, mu=0.02)
        r = np.random.default_rng(77).standard_normal(6)
        assert np.linalg.norm(dense @ P.apply(r) - r) <= 1e-10 * np.linalg.norm(r)

    @pytest.mark.parametrize("seed", [2, 3, 78])
    def test_non_pd_failure_names_mu(self, seed):
        # mu > 0 makes every block positive definite in exact arithmetic, but
        # a duplicated feature row at a mu far below the curvature's scale
        # leaves a pivot whose sign roundoff picks: seed 78 once raised while
        # seeds 2 and 3 built inverses with entries of 9e15 and 4.5e15
        ds, _ = make_dense_instance(d=8, n=8, seed=seed)
        Xd = ds.X.toarray()
        Xd[3] = Xd[2]
        spart = partition_by_samples(SparseBlock.from_dense(Xd), ds.y, 1)
        with pytest.raises(np.linalg.LinAlgError, match=r"not positive definite; increase mu \(currently mu=1e-30\)"):
            build_preconditioner(ridge_config(mu=1e-30, tau=8), spart)

    def test_sample_and_feature_builds_agree_blockwise(self):
        # tau must not exceed the master shard so both layouts see the same
        # subsample (the first tau global samples)
        ds, _ = make_dense_instance(d=9, n=12, seed=79, lam=0.2, labels="sign")
        m = 3
        spart = partition_by_samples(ds.X, ds.y, m)
        fpart = partition_by_features(ds.X, ds.y, m)
        rng = np.random.default_rng(80)
        r = rng.standard_normal(9)
        # both builders take the same length-n margins
        margins = rng.standard_normal(12)
        # d_b = 3: the dense and the low-rank path of either loss
        for loss, tau in itertools.product(LossKind, (4, 2)):
            cfg = ridge_config(lam=0.2, mu=0.05, tau=tau, loss=loss)
            Ps = build_preconditioner(cfg, spart, margins)
            Pf = build_preconditioner_features(cfg, fpart, margins)
            got = np.concatenate(
                [Pf.apply_block(i, r[o:o + s]) for i, (o, s) in enumerate(zip(Pf.offsets, Pf.sizes))]
            )
            assert np.array_equal(Ps.apply(r), got)
            assert (Ps.x is None) == (Pf.x is None) == (tau >= 3)
            for a, b in zip(preconditioner_arrays(Ps), preconditioner_arrays(Pf), strict=True):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_low_rank_block_stores_no_square_array(self, loss):
        labels = "sign" if loss is LossKind.LOGISTIC else "regression"
        ds, _ = make_dense_instance(d=40, n=12, seed=83, loss=loss, labels=labels)
        spart = partition_by_samples(ds.X, ds.y, 1)
        margins = np.random.default_rng(83).standard_normal(12)
        P = build_preconditioner(ridge_config(mu=0.1, tau=5, loss=loss), spart, margins)
        (c,) = P.c
        assert P.x is not None
        assert [P.x.matrix.shape, P.x.matrix_t.shape, c.shape] == [(5, 40), (40, 5), (5, 5)]
        expected = brute_force_curvature(ds.X.toarray(), hess_coeffs(loss, margins, ds.y), tau=5, mu=0.1)
        r = np.random.default_rng(84).standard_normal(40)
        assert np.linalg.norm(P.apply(r) - np.linalg.solve(expected, r)) <= 1e-12 * np.linalg.norm(r) / 0.1

    def test_block_solve_dimension_check(self):
        ds, _ = make_dense_instance(d=6, n=8, seed=81)
        cfg = ridge_config(mu=0.1, tau=4)
        spart = partition_by_samples(ds.X, ds.y, 1)
        P = build_preconditioner(cfg, spart)
        with pytest.raises(ValueError):
            P.apply(np.zeros(5))
        with pytest.raises(ValueError, match="block 0 solve: vector has length 5, block is 6"):
            P.apply_block(0, np.zeros(5))

    @staticmethod
    def seven_features(loss):
        """A d=7, n=12 problem and the margins the builds below use."""
        labels = "sign" if loss is LossKind.LOGISTIC else "regression"
        ds, _ = make_dense_instance(d=7, n=12, seed=96, loss=loss, labels=labels)
        return ds, np.random.default_rng(97).standard_normal(12)

    @classmethod
    def mixed_preconditioners(cls, m, tau, loss):
        """Both layouts' builds on the d=7 problem at m nodes."""
        ds, margins = cls.seven_features(loss)
        cfg = ridge_config(mu=0.05, tau=tau, loss=loss)
        return (build_preconditioner(cfg, partition_by_samples(ds.X, ds.y, m), margins),
                build_preconditioner_features(cfg, partition_by_features(ds.X, ds.y, m), margins))

    @pytest.mark.parametrize("loss", list(LossKind))
    @pytest.mark.parametrize("m, tau, kinds", [
        (2, 3, "LD"),  # blocks of 4 and 3 features: tau is below the first only
        (3, 2, "LDD"),
        (3, 1, "LLL"),
        (2, 5, "DD"),
        (1, 6, "L"),
    ])
    def test_stacked_apply_is_the_per_block_solves_bitwise(self, m, tau, kinds, loss):
        """``kinds`` marks each block L when tau is below its size, else D. A
        build runs Woodbury only when every block is L, all blocks at once
        through the cut of their slices, and otherwise inverts every block
        dense and applies them one by one; each block's part of the result
        has the bits of ``apply_block``."""
        r = np.random.default_rng(98).standard_normal(7)
        r_before = r.copy()
        for P in self.mixed_preconditioners(m, tau, loss):
            assert "".join("L" if tau < size else "D" for size in P.sizes) == kinds
            assert (P.x is not None) == (set(kinds) == {"L"})
            per_block = [P.apply_block(i, r[o:o + s]) for i, (o, s) in enumerate(zip(P.offsets, P.sizes))]
            assert P.apply(r).tobytes() == np.concatenate(per_block).tobytes()
            assert np.array_equal(r, r_before)

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_a_build_is_all_woodbury_or_all_dense(self, loss):
        """Woodbury only when tau is below every block's size. At d=7, m=2
        (blocks of 4 and 3 features) tau=3 builds both blocks dense in both
        layouts, bitwise equal to each other and within 1e-12 of the inverse
        of P assembled by brute force; tau=2 builds both through Woodbury."""
        ds, margins = self.seven_features(loss)
        r = np.random.default_rng(99).standard_normal(7)
        for tau, woodbury in ((3, False), (2, True)):
            Ps, Pf = self.mixed_preconditioners(2, tau, loss)
            assert (Ps.x is not None) == (Pf.x is not None) == woodbury
            assert len(Ps.c) == len(Pf.c) == 2
            for a, b in zip(preconditioner_arrays(Ps), preconditioner_arrays(Pf), strict=True):
                assert np.array_equal(a, b)
            h = hess_coeffs(loss, margins[:tau], ds.y[:tau])
            full = brute_force_curvature(ds.X.toarray(), h, tau=tau, mu=0.05)
            P = np.zeros((7, 7))
            P[:4, :4], P[4:, 4:] = full[:4, :4], full[4:, 4:]
            want = np.linalg.solve(P, r)
            for got in (Ps.apply(r), Pf.apply(r)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("loss", list(LossKind))
    @pytest.mark.parametrize("m, tau", [(2, 2), (2, 3), (3, 1), (1, 6)])
    def test_block_solve_is_its_own_inverse_applied(self, m, tau, loss):
        """``apply_block(i, r)`` is bitwise the block's own solve, written here
        from ``c[i]``: one ``dsymv`` for a dense block, and for a Woodbury
        block (r - X_i (C_i (X_i' r))) / mu over the block's d_i x tau slice
        X_i, cut from X."""
        ds, _ = self.seven_features(loss)
        rng = np.random.default_rng(100)
        for P in self.mixed_preconditioners(m, tau, loss):
            for i, (off, size) in enumerate(zip(P.offsets, P.sizes)):
                r = rng.standard_normal(size)
                if P.x is None:
                    want = dsymv(1.0, P.c[i], r, lower=1)
                else:
                    x_i = ds.X.matrix[off:off + size, :tau]
                    want = (r - x_i @ dsymv(1.0, P.c[i], x_i.T.tocsr() @ r, lower=1)) / P.mu
                assert P.apply_block(i, r).tobytes() == want.tobytes()

    def test_non_vector_and_unknown_block_rejected(self):
        # unchecked, a block solve would take a matrix's column 0 or fail in
        # numpy, and index -1 would pick the last block
        for tau in (2, 3):  # a Woodbury and a dense build
            P, _ = self.mixed_preconditioners(2, tau, LossKind.SQUARE)
            for i, size in enumerate(P.sizes):
                with pytest.raises(ValueError, match=rf"block {i} solve takes a vector: r has shape \({size}, 2\)"):
                    P.apply_block(i, np.ones((size, 2)))
            for i in (-1, 2):
                with pytest.raises(ValueError, match=rf"block index {i} is outside 0\.\.1"):
                    P.apply_block(i, np.ones(3))
            for r in (np.ones((7, 2)), np.ones((1, 7)), np.float64(1.0)):
                shape = re.escape(str(np.shape(r)))
                with pytest.raises(ValueError, match=rf"P solve takes a vector: r has shape {shape}"):
                    P.apply(r)


def curvature_slice(Xd):
    """What a partition keeps of the dense d_b x tau slice ``Xd`` as its one
    feature block: the cut of a one-node partition of the slice itself."""
    tau = Xd.shape[1]
    return _curvature_slices(partition_by_samples(SparseBlock.from_dense(Xd), np.zeros(tau), 1), tau)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d_b=st.integers(2, 30), mu=st.floats(1e-3, 10.0))
def test_low_rank_apply_matches_dense_solve(data, d_b, mu):
    """The Woodbury block solve, (r - X_b C X_b' r)/mu with C = S K^{-1} S,
    equals a dense solve of P_b to 1e-10 and a solve through K's Cholesky
    factor to 1e-12, also when some curvature coefficients are exactly zero
    (logistic underflow); r is left untouched."""
    tau = data.draw(st.integers(1, d_b - 1), label="tau")
    h = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.0]) | st.floats(0.0, 4.0),
                                    min_size=tau, max_size=tau), label="h"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    density = data.draw(st.sampled_from([0.1, 0.5, 1.0]), label="density")
    Xd = rng.standard_normal((d_b, tau)) * (rng.random((d_b, tau)) < density)
    kept = curvature_slice(Xd)
    P = _invert_blocks(kept, h, mu)
    assert P.x is not None
    r = rng.standard_normal(d_b)
    r_before = r.copy()
    got = P.apply(r)
    assert np.array_equal(r, r_before)
    expected = np.linalg.solve((Xd * h) @ Xd.T / tau + mu * np.eye(d_b), r)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
    s = np.sqrt(h)
    (gram,) = kept.arrays
    k = (s[:, None] * gram) * s + mu * tau * np.eye(tau)
    via_factor = (r - Xd @ (s * cho_solve(cho_factor(k, lower=True), s * (Xd.T @ r)))) / mu
    assert np.linalg.norm(got - via_factor) <= 1e-12 * np.linalg.norm(via_factor)


def sparse_curvature_block(d_b, tau, seed, mu=0.05):
    """The one-block preconditioner of a random 30%-dense d_b x tau slice,
    plus the rng."""
    rng = np.random.default_rng(seed)
    Xd = rng.standard_normal((d_b, tau)) * (rng.random((d_b, tau)) < 0.3)
    h = rng.uniform(0.0, 2.0, tau)
    return _invert_blocks(curvature_slice(Xd), h, mu), rng


@pytest.mark.parametrize("d_b, tau", [(1, 1), (5, 8), (63, 63), (125, 200)])
def test_dense_block_solve_matches_cho_solve_bitwise(d_b, tau):
    """A dense block's solve is, bitwise, scipy's ``dsymv`` on the inverse
    that ``dpotri`` forms from ``cho_factor(P_b)``; r is left untouched."""
    P, _ = sparse_curvature_block(d_b, tau, seed=d_b)
    assert P.x is None
    rng = np.random.default_rng(d_b)  # redraw the slice and h the block was built from
    Xd = rng.standard_normal((d_b, tau)) * (rng.random((d_b, tau)) < 0.3)
    h = rng.uniform(0.0, 2.0, tau)
    p_b = (Xd * h) @ Xd.T / tau
    p_b[np.diag_indices_from(p_b)] += 0.05
    inv, info = dpotri(cho_factor(p_b, lower=True)[0], lower=1)
    assert info == 0
    r = rng.standard_normal(d_b)
    r_before = r.copy()
    assert np.array_equal(P.apply(r), dsymv(1.0, inv, r, lower=1))
    assert np.array_equal(r, r_before)


@pytest.mark.parametrize("d_b, tau", [(2, 1), (40, 5), (200, 63), (1000, 125)])
def test_low_rank_block_solve_matches_woodbury_bitwise(d_b, tau):
    P, rng = sparse_curvature_block(d_b, tau, seed=d_b)
    assert P.x is not None
    r = rng.standard_normal(d_b)
    r_before = r.copy()
    z = dsymv(1.0, P.c[0], P.x.matrix @ r, lower=1)
    assert np.array_equal(P.apply(r), (r - P.x.matrix_t @ z) / P.mu)
    assert np.array_equal(r, r_before)


def low_rank_blocks(loss, mode, tau):
    """A layout's build on a d=40, m=2 problem (d_b = 20) at the given loss
    and tau, with the kept cut it was built from and the curvature."""
    labels = "sign" if loss is LossKind.LOGISTIC else "regression"
    ds, _ = make_dense_instance(d=40, n=60, seed=94, loss=loss, labels=labels)
    margins = np.random.default_rng(95).standard_normal(60)
    cfg = ridge_config(mu=0.1, tau=tau, loss=loss, mode=mode)
    if mode is PartitionMode.SAMPLES:
        part = partition_by_samples(ds.X, ds.y, 2)
        P = build_preconditioner(cfg, part, margins)
    else:
        part = partition_by_features(ds.X, ds.y, 2)
        P = build_preconditioner_features(cfg, part, margins)
    (kept,) = part.cache.values()
    return P, kept, hess_coeffs(loss, margins[:tau], ds.y[:tau])


@pytest.mark.parametrize("loss", list(LossKind))
@pytest.mark.parametrize("mode", list(PartitionMode))
def test_low_rank_blocks_keep_the_inverse_not_the_factor(mode, loss):
    """Each Woodbury block of either loss's build keeps C = S K^{-1} S in
    place of K's Cholesky factor: its lower triangle, the only one the solve
    reads, is that of the inverse of K to 1e-12, and it is Fortran-ordered,
    so that ``dsymv`` reads it in place. The build holds the partition's
    cut of the slices and no factor."""
    P, kept, h = low_rank_blocks(loss, mode, tau=6)
    assert [f.name for f in dataclasses.fields(P)] == ["sizes", "offsets", "c", "x", "mu"]
    assert P.x is kept.x and P.x is not None
    s = np.sqrt(h)
    for c, gram in zip(P.c, kept.arrays, strict=True):
        k = (s[:, None] * gram) * s + 0.1 * 6 * np.eye(6)
        want = np.tril(s[:, None] * np.linalg.inv(k) * s)
        assert np.linalg.norm(np.tril(c) - want) <= 1e-12 * np.linalg.norm(want)
        assert c.flags.f_contiguous


@pytest.mark.parametrize("loss", list(LossKind))
@pytest.mark.parametrize("mode", list(PartitionMode))
def test_dense_blocks_keep_their_factor(mode, loss):
    """tau >= d_b: each block keeps the inverse of the d_b x d_b P_b in place
    of its Cholesky factor: the lower triangle, the only one the solve reads,
    is that of inv(P_b) to 1e-12, and it is Fortran-ordered, so that
    ``dsymv`` reads it in place."""
    P, kept, h = low_rank_blocks(loss, mode, tau=25)
    assert P.x is None and kept.x is None
    for c, sliced in zip(P.c, kept.arrays, strict=True):
        p_b = (sliced * h) @ sliced.T / 25 + 0.1 * np.eye(20)
        want = np.tril(np.linalg.inv(p_b))
        assert np.linalg.norm(np.tril(c) - want) <= 1e-12 * np.linalg.norm(want)
        assert c.flags.f_contiguous


@pytest.mark.parametrize("loss, builds", [(LossKind.SQUARE, 1), (LossKind.LOGISTIC, None)])
@pytest.mark.parametrize("mode", list(PartitionMode))
def test_one_build_serves_a_square_solve(monkeypatch, loss, builds, mode):
    """``disco_outer`` builds the square loss's preconditioner once per solve
    and the logistic one before every Newton step."""
    name = "build_preconditioner" if mode is PartitionMode.SAMPLES else "build_preconditioner_features"
    built = []
    build = getattr(solver, name)

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(solver, name, counting)
    labels = "sign" if loss is LossKind.LOGISTIC else "regression"
    ds, _ = make_dense_instance(d=12, n=20, seed=96, loss=loss, labels=labels)
    result = disco_outer(Cluster(2), ds, ridge_config(mu=0.1, tau=4, loss=loss, mode=mode))
    assert result.updates > 1
    assert len(built) == (result.updates if builds is None else builds)


@pytest.mark.parametrize("d_b, tau", [(40, 5), (5, 8)])  # a Woodbury and a dense block
def test_low_rank_build_raises_on_potri_error(monkeypatch, d_b, tau):
    monkeypatch.setattr("disco.solver._potri", lambda c, lower, overwrite_c: (c, -1))
    Xd = np.random.default_rng(97).standard_normal((d_b, tau))
    with pytest.raises(ValueError, match="internal potri failed with info=-1"):
        _invert_blocks(curvature_slice(Xd), np.full(tau, 2.0), 0.05)
    monkeypatch.undo()
    assert (_invert_blocks(curvature_slice(Xd), np.full(tau, 2.0), 0.05).x is None) == (tau >= d_b)


def test_more_nodes_than_features_give_one_feature_blocks():
    # the sample layout splits d < m features into min(d, m) one-feature blocks
    ds, _ = make_dense_instance(d=2, n=12, seed=85)
    spart = partition_by_samples(ds.X, ds.y, 3)
    P = build_preconditioner(ridge_config(mu=0.1, tau=4), spart)
    assert P.sizes == (1, 1) and P.offsets == (0, 1)
    r = np.random.default_rng(86).standard_normal(2)
    master = ds.X.matrix[:, :spart.sizes[0]].toarray()  # the master's samples
    expected = brute_force_curvature(master, np.full(4, 2.0), tau=4, mu=0.1)
    assert np.linalg.norm(P.apply(r) - np.linalg.solve(np.diag(np.diag(expected)), r)) <= 1e-12 * np.linalg.norm(r)


@pytest.mark.parametrize("d_b, tau", [(2, 1), (40, 5), (200, 63), (1000, 125)])
def test_low_rank_factor_matches_sparse_gram_bitwise(d_b, tau):
    """The build holds the kept cut and, bitwise, C = S K^{-1} S inverted
    from the factor of K = (s * G) * s + mu*tau*I, s = sqrt(h), where
    G = (x'x).toarray() is the sparse Gram the partition keeps; also with
    zero curvature coefficients. K agrees
    with the Gram of the scaled slice U = x @ diags(s), formed as
    (U'U).toarray() + mu*tau*I, to 1e-14 relative in Frobenius norm: the two
    differ only in where the sqrt(h) factors are rounded in (at most 8.2e-16
    over 200 draws of each shape)."""
    rng = np.random.default_rng(d_b + tau)
    Xd = rng.standard_normal((d_b, tau)) * (rng.random((d_b, tau)) < 0.3)
    h = rng.uniform(0.0, 2.0, tau) * (rng.random(tau) < 0.8)
    h[0] = 0.0
    mu = 0.05
    kept = curvature_slice(Xd)
    P = _invert_blocks(kept, h, mu)
    assert P.x is kept.x and P.x is not None and P.mu == mu
    s = np.sqrt(h)
    x = SparseBlock.from_dense(Xd).matrix
    (gram,) = kept.arrays
    assert np.array_equal(gram, (x.T.tocsr() @ x).toarray())
    k = (s[:, None] * gram) * s
    k[np.diag_indices_from(k)] += mu * tau
    inv, info = dpotri(cho_factor(k, lower=True)[0], lower=1)
    assert info == 0
    assert np.array_equal(P.c[0], inv * s[:, None] * s)
    u = x @ sparse.diags_array(s)
    scaled = (u.T.tocsr() @ u).toarray()
    scaled[np.diag_indices_from(scaled)] += mu * tau
    assert np.linalg.norm(k - scaled) <= 1e-14 * np.linalg.norm(scaled)


@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("d, n, m, tau", [(40, 30, 2, 6), (23, 12, 3, 5), (9, 4, 4, 1), (30, 20, 1, 17)])
def test_kept_grams_are_the_per_block_sparse_grams_bitwise(mode, d, n, m, tau):
    """Each Woodbury block's kept Gram, the product of the kept cut's rows
    b, b+k, ... with their transpose, has the bits of the block's own sparse
    Gram ``b.T.tocsr() @ b`` over its d_b x tau slice b (the oracle below);
    on uneven blocks, with an empty feature row and an empty sample column."""
    rng = np.random.default_rng(d * n + m)
    Xd = rng.standard_normal((d, n)) * (rng.random((d, n)) < 0.4)
    Xd[2] = 0.0
    Xd[:, 0] = 0.0
    X = SparseBlock.from_dense(Xd)
    part = (partition_by_samples if mode is PartitionMode.SAMPLES else partition_by_features)(X, np.zeros(n), m)
    kept = _curvature_slices(part, tau)
    assert kept.x is not None and len(kept.arrays) == min(d, m)
    first = X.matrix[:, :tau]
    for gram, off, size in zip(kept.arrays, kept.offsets, kept.sizes, strict=True):
        b = first[off:off + size]
        assert gram.tobytes() == (b.T.tocsr() @ b).toarray().tobytes()


def test_build_preconditioner_constructs_only_the_kept_stack(monkeypatch):
    """A partition's first Woodbury build constructs one ``SparseBlock``,
    the cut of its slices that the partition keeps; a rebuild constructs
    none."""
    ds, _ = make_dense_instance(d=12, n=10, seed=87, lam=0.1, loss=LossKind.LOGISTIC, labels="sign")
    spart = partition_by_samples(ds.X, ds.y, 2)
    w = np.random.default_rng(88).standard_normal(12)
    cfg = ridge_config(mu=0.1, tau=3, loss=LossKind.LOGISTIC)
    margins = ds.X.matrix.T @ w  # the margins X'w, as the gradient exchange leaves them
    built = []
    init = SparseBlock.__post_init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(SparseBlock, "__post_init__", counting_init)
    P = build_preconditioner(cfg, spart, margins)
    assert built == [P.x] and P.x is not None
    # the 12 x 10 data is taller than wide: the cut of the two blocks' 6 x 3
    # slices, 6 x 12, views the CSR copy of X' that X caches
    assert P.x.matrix.shape == (2 * 3, 12) and np.shares_memory(P.x.matrix.data, spart.X.matrix_t.data)
    build_preconditioner(cfg, spart, -margins)
    assert built == [P.x]


def preconditioner_arrays(P):
    """Every array a built preconditioner holds."""
    yield from P.c
    if P.x is not None:
        for m in (P.x.matrix, P.x.matrix_t):
            yield from (m.data, m.indices, m.indptr)


@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("tau", [3, 5])  # d_b = 4: the low-rank and the dense path
def test_logistic_rebuild_slices_nothing(monkeypatch, mode, tau):
    """The partition keeps what every build reads of its first-tau-samples
    slices: a second logistic build on it, at other margins, slices no sparse
    matrix, converts none to a dense array and creates none, and its blocks
    equal a fresh partition's, array for array."""
    ds, _ = make_dense_instance(d=8, n=10, seed=89, loss=LossKind.LOGISTIC, labels="sign")
    cfg = ridge_config(mu=0.1, tau=tau, loss=LossKind.LOGISTIC, mode=mode)
    if mode is PartitionMode.SAMPLES:
        part_of, build = partition_by_samples, build_preconditioner
    else:
        part_of, build = partition_by_features, build_preconditioner_features
    rng = np.random.default_rng(90)
    first, second = rng.standard_normal(10), rng.standard_normal(10)
    part = part_of(ds.X, ds.y, 2)
    build(cfg, part, first)

    def refuse(name):
        def refusing(*args, **kwargs):
            raise AssertionError(f"a rebuild called {name}")
        return refusing

    created = []

    def counting(cls):
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            created.append(cls)
            init(self, *args, **kwargs)
        return counting_init

    with monkeypatch.context() as patch:
        patch.setattr(sparse.csr_array, "__getitem__", refuse("__getitem__"))
        patch.setattr(sparse.csr_array, "toarray", refuse("toarray"))
        with pytest.raises(AssertionError, match="__getitem__"):  # a partition's first build does slice
            build(cfg, part_of(ds.X, ds.y, 2), first)
        for cls in (sparse.csr_array, sparse.csc_array, sparse.coo_array):
            patch.setattr(cls, "__init__", counting(cls))
        again = build(cfg, part, second)
    assert created == []
    fresh = build(cfg, part_of(ds.X, ds.y, 2), second)
    assert (again.sizes, again.offsets) == (fresh.sizes, fresh.offsets)
    assert (again.x is None) == (fresh.x is None) == (tau >= 4)
    for a, b in zip(preconditioner_arrays(again), preconditioner_arrays(fresh), strict=True):
        assert np.array_equal(a, b)
    # what the partition keeps (each block's Gram and the cut of the
    # slices with its CSC view, or each block's dense slice) lives exactly
    # as long as the partition and the preconditioners built from it
    (kept,) = part.cache.values()
    assert again.x is kept.x
    kept = [weakref.ref(a) for a in (*kept.arrays, *(() if kept.x is None else (kept.x, kept.x.matrix_t)))]
    del part, again
    gc.collect()
    assert [ref() for ref in kept] == [None] * (4 if tau < 4 else 2)


@pytest.mark.parametrize("mode", list(PartitionMode))
def test_alternating_solves_repeat_each_datasets_first_solve(mode):
    """Slices kept by one solve's partition never reach another solve:
    alternating logistic solves of two same-shape datasets repeat each one's
    first ``w`` and counters. (A cache keyed by ``id(partition)`` breaks this
    whenever a new partition reuses a freed one's id, which collecting
    garbage before each solve makes likelier; as that depends on the
    allocator, ``test_logistic_rebuild_slices_nothing`` also pins the cache
    to the partition itself.)"""
    datasets = [make_dense_instance(d=12, n=20, seed=seed, loss=LossKind.LOGISTIC, labels="sign")[0]
                for seed in (91, 92)]
    cfg = SolverConfig(lam=0.1, mu=0.1, tau=5, loss=LossKind.LOGISTIC, partition_mode=mode)
    first = {}
    for _ in range(20):
        for j, ds in enumerate(datasets):
            gc.collect()
            cluster = Cluster(2)
            result = disco_outer(cluster, ds, cfg)
            got = (result.w.tobytes(), cluster.snapshot_stats(), result.inner_iters_total, result.updates)
            assert first.setdefault(j, got) == got
    assert first[0] != first[1]


@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("loss", list(LossKind))
def test_solve_through_scipy_products_is_bitwise_the_same(monkeypatch, mode, loss):
    """A solve whose products all go through scipy's ``operand @ x`` -- the
    data products and both low-rank preconditioner products -- gives the same
    ``w`` bytes and counters as one through the direct kernel calls."""
    ds, _ = make_dense_instance(d=40, n=30, seed=5, loss=loss,
                                labels="sign" if loss is LossKind.LOGISTIC else "regression")
    cfg = SolverConfig(lam=0.1, mu=0.1, tau=6, loss=loss, partition_mode=mode)

    def solve():
        cluster = Cluster(2)
        result = disco_outer(cluster, ds, cfg)
        return result.w.tobytes(), cluster.snapshot_stats(), result.inner_iters_total, result.updates

    direct = solve()
    low_rank = []
    monkeypatch.setattr(solver, "spmv", lambda block, x: block.matrix @ x)
    monkeypatch.setattr(solver, "spmv_transpose", lambda block, x: block.matrix_t @ x)
    monkeypatch.setattr(solver, "matvec", lambda op, x: low_rank.append(op) or op @ x)
    assert solve() == direct
    assert low_rank  # the preconditioner blocks are low-rank (tau < d_b), so their products were swapped too


class TestHessianVecSamples:
    def test_single_node_bit_exact(self):
        ds, obj = make_dense_instance(d=8, n=14, seed=90, lam=0.2)
        spart = partition_by_samples(ds.X, ds.y, 1)
        rng = np.random.default_rng(91)
        w, u = rng.standard_normal(8), rng.standard_normal(8)
        layout = _SampleLayout(Cluster(1), spart, SolverConfig(lam=obj.lam, loss=obj.loss))
        got = layout.hess_vec(u, layout.curvature(layout.gradient(w)[1]))
        assert np.array_equal(got, hess_vec_dense(obj, ds.X, ds.y, w, u))

    @pytest.mark.parametrize("loss,labels", [(LossKind.SQUARE, "regression"), (LossKind.LOGISTIC, "sign")])
    def test_multi_node_matches_dense(self, loss, labels):
        ds, obj = make_dense_instance(d=8, n=30, seed=92, lam=0.2, loss=loss, labels=labels)
        spart = partition_by_samples(ds.X, ds.y, 3)
        rng = np.random.default_rng(93)
        w, u = rng.standard_normal(8), rng.standard_normal(8)
        layout = _SampleLayout(Cluster(3), spart, SolverConfig(lam=obj.lam, loss=obj.loss))
        got = layout.hess_vec(u, layout.curvature(layout.gradient(w)[1]))
        expected = hess_vec_dense(obj, ds.X, ds.y, w, u)
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gradient_margins_are_one_length_n_array(self, m):
        # node j forms its slice of X'w, so the sample layout hands PCG and
        # its builder the same length-n array as the feature layout: for the
        # logistic loss X'w itself; for the square loss the per-shard
        # products of the feature split, X_i'w_i, added in node order, as
        # the feature layout's reduce_all adds them
        for loss, labels in ((LossKind.LOGISTIC, "sign"), (LossKind.SQUARE, "regression")):
            ds, obj = make_dense_instance(d=6, n=7, seed=96, loss=loss, labels=labels)
            w = np.random.default_rng(97).standard_normal(6)
            layout = _SampleLayout(Cluster(m), partition_by_samples(ds.X, ds.y, m),
                                   SolverConfig(lam=obj.lam, loss=loss))
            margins = layout.gradient(w)[1]
            assert margins.shape == (7,) and margins.dtype == np.float64
            if loss is LossKind.LOGISTIC:
                want = ds.X.matrix.T @ w
            else:
                ends = np.cumsum([0, *balanced_sizes(6, m)])
                parts = [ds.X.matrix[a:b].T @ w[a:b] for a, b in zip(ends, ends[1:])]
                want = sum(parts[1:], parts[0])
            assert margins.tobytes() == want.tobytes(), loss

    def test_zero_direction_still_costs_two_rounds(self):
        ds, obj = make_dense_instance(d=6, n=9, seed=94)
        spart = partition_by_samples(ds.X, ds.y, 3)
        cl = Cluster(3)
        layout = _SampleLayout(cl, spart, SolverConfig(lam=obj.lam, loss=obj.loss))
        h = layout.curvature(layout.gradient(np.zeros(6))[1])
        cl.reset_stats()
        got = layout.hess_vec(np.zeros(6), h)
        assert np.array_equal(got, np.zeros(6))
        stats = cl.snapshot_stats()
        assert stats.broadcast_rounds == 1 and stats.reduceall_rounds == 1
        assert stats.broadcast_bytes == 8 * 6 and stats.reduceall_bytes == 8 * 6


class TestHessianVecFeatures:
    def test_single_node_matches_dense(self):
        ds, obj = make_dense_instance(d=7, n=11, seed=95, lam=0.3)
        fpart = partition_by_features(ds.X, ds.y, 1)
        rng = np.random.default_rng(96)
        u = rng.standard_normal(7)
        layout = _FeatureLayout(Cluster(1), fpart, SolverConfig(lam=obj.lam, loss=obj.loss))
        got = layout.hess_vec(u, layout.curvature(None))
        assert np.array_equal(got, hess_vec_dense(obj, ds.X, ds.y, np.zeros(7), u))

    @pytest.mark.parametrize("loss,labels", [(LossKind.SQUARE, "regression"), (LossKind.LOGISTIC, "sign")])
    def test_multi_node_matches_dense(self, loss, labels):
        ds, obj = make_dense_instance(d=20, n=12, seed=97, lam=0.2, loss=loss, labels=labels)
        m = 4
        fpart = partition_by_features(ds.X, ds.y, m)
        cl = Cluster(m)
        rng = np.random.default_rng(98)
        w, u = rng.standard_normal(20), rng.standard_normal(20)
        layout = _FeatureLayout(cl, fpart, SolverConfig(lam=obj.lam, loss=obj.loss))
        got = layout.hess_vec(u, layout.curvature(layout.gradient(w)[1]))
        expected = hess_vec_dense(obj, ds.X, ds.y, w, u)
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    def test_costs_one_length_n_round(self):
        ds, obj = make_dense_instance(d=8, n=13, seed=99)
        fpart = partition_by_features(ds.X, ds.y, 2)
        cl = Cluster(2)
        layout = _FeatureLayout(cl, fpart, SolverConfig(lam=obj.lam, loss=obj.loss))
        layout.hess_vec(np.zeros(8), layout.curvature(None))
        stats = cl.snapshot_stats()
        assert stats.reduceall_rounds == 1 and stats.reduceall_bytes == 8 * 13
        assert stats.broadcast_rounds == 0

    def test_coupling_through_margins(self):
        # direction supported on node 0's features still produces nonzero
        # blocks elsewhere via the shared sample space
        ds, obj = make_dense_instance(d=6, n=9, seed=100, lam=0.5)
        fpart = partition_by_features(ds.X, ds.y, 2)
        cl = Cluster(2)
        u = np.zeros(6)
        u[:fpart.sizes[0]] = 1.0
        layout = _FeatureLayout(cl, fpart, SolverConfig(lam=obj.lam, loss=obj.loss))
        got = layout.hess_vec(u, layout.curvature(None))
        assert np.linalg.norm(got[fpart.sizes[0]:]) > 0  # data coupling, lam * 0 = 0


class TestPcgSamples:
    def test_exact_preconditioner_converges_in_one_iteration(self):
        ds, _ = make_dense_instance(d=6, n=10, seed=110, lam=0.3)
        cfg = ridge_config(lam=0.3, mu=0.3, tau=10)
        spart = partition_by_samples(ds.X, ds.y, 1)
        rng = np.random.default_rng(111)
        w = rng.standard_normal(6)
        step = newton_step(Cluster(1), spart, w, 1e-10, cfg)
        assert step.converged and step.inner_iters == 1

    def test_hand_case_2x2(self):
        # identity data, lam = 1 -> H = 2I; solve H v = [2, 0]
        X = SparseBlock.from_dense(np.eye(2))
        y = np.array([1.0, 1.0])
        ds = Dataset(X=X, y=y, d=2, n=2, source="hand")
        cfg = ridge_config(lam=1.0, mu=1.0, tau=2)
        spart = partition_by_samples(X, y, 1)
        step = newton_step(Cluster(1), spart, np.zeros(2), 1e-12, cfg, grad=np.array([2.0, 0.0]))
        assert np.allclose(step.direction, [1.0, 0.0], atol=1e-12)
        assert step.delta == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_dense_solve(self, m):
        ds, obj = make_dense_instance(d=10, n=25, seed=112, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.01, tau=6)
        spart = partition_by_samples(ds.X, ds.y, m)
        rng = np.random.default_rng(113)
        w = rng.standard_normal(10)
        step = newton_step(Cluster(m), spart, w, 1e-12, cfg)
        expected = DenseNewtonOracle(ds, obj).newton_direction(w)
        assert step.converged
        assert np.linalg.norm(step.direction - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_comm_pattern_per_iteration(self):
        ds, _ = make_dense_instance(d=12, n=30, seed=114, lam=0.1)
        cfg = ridge_config(tau=8)
        m = 3
        spart = partition_by_samples(ds.X, ds.y, m)
        cl = Cluster(m)
        grad, margins = _SampleLayout(cl, spart, cfg).gradient(np.zeros(12))
        precond = build_preconditioner(cfg, spart, margins)
        cl.reset_stats()
        step = pcg_samples(cl, spart, 1e-10, cfg, grad=grad, margins=margins, precond=precond)
        stats = cl.snapshot_stats()
        T = step.inner_iters
        assert stats.broadcast_rounds == T and stats.reduceall_rounds == T
        assert stats.broadcast_bytes == 8 * 12 * T and stats.reduceall_bytes == 8 * 12 * T
        assert stats.reduce_rounds == 0

    def test_standalone_call_meters_initial_gradient_exchange(self):
        ds, _ = make_dense_instance(d=9, n=18, seed=115, lam=0.1)
        cfg = ridge_config(tau=6)
        m = 2
        spart = partition_by_samples(ds.X, ds.y, m)
        cl = Cluster(m)
        step = newton_step(cl, spart, np.zeros(9), 1e-10, cfg)
        stats = cl.snapshot_stats()
        T = step.inner_iters
        assert stats.broadcast_rounds == T + 1 and stats.reduceall_rounds == T + 1

    def test_max_inner_flags_not_converged(self):
        ds, _ = make_dense_instance(d=10, n=20, seed=116, lam=1e-3)
        cfg = ridge_config(lam=1e-3, mu=1.0, tau=4, max_inner=2)
        spart = partition_by_samples(ds.X, ds.y, 1)
        step = newton_step(Cluster(1), spart, np.zeros(10), 1e-14, cfg)
        assert not step.converged and step.inner_iters == 2


class TestPcgFeatures:
    def test_single_node_bit_identical_to_samples(self):
        ds, _ = make_dense_instance(d=10, n=22, seed=120, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.02, tau=9)
        rng = np.random.default_rng(121)
        w = rng.standard_normal(10)
        spart = partition_by_samples(ds.X, ds.y, 1)
        fpart = partition_by_features(ds.X, ds.y, 1)
        pcgs = (
            lambda c: newton_step(Cluster(1), spart, w, 1e-9, c),
            lambda c: newton_step(Cluster(1), fpart, w, 1e-9, c),
        )
        (step_s, res_s), (step_f, res_f) = (preconditioned_residuals(lambda: pcg(cfg)) for pcg in pcgs)
        assert step_s.inner_iters == step_f.inner_iters
        assert np.array_equal(step_s.direction, step_f.direction)
        assert step_s.delta == step_f.delta
        assert len(res_s) == len(res_f) == step_s.inner_iters + 1
        for r_s, r_f in zip(res_s, res_f):
            assert np.array_equal(r_s, r_f)
        its_s, its_f = (inner_steps(pcg, cfg) for pcg in pcgs)
        assert len(its_s) == len(its_f) == step_s.inner_iters
        for it_s, it_f in zip(its_s, its_f):
            assert np.array_equal(it_s.direction, it_f.direction)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_dense_solve_and_cross_layout(self, m):
        ds, obj = make_dense_instance(d=10, n=25, seed=122, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.01, tau=6)
        rng = np.random.default_rng(123)
        w = rng.standard_normal(10)
        step_f = newton_step(Cluster(m), partition_by_features(ds.X, ds.y, m), w, 1e-12, cfg)
        expected = DenseNewtonOracle(ds, obj).newton_direction(w)
        assert np.linalg.norm(step_f.direction - expected) <= 1e-8 * np.linalg.norm(expected)
        step_s = newton_step(Cluster(m), partition_by_samples(ds.X, ds.y, m), w, 1e-12, cfg)
        assert np.linalg.norm(step_f.direction - step_s.direction) <= 1e-8 * np.linalg.norm(step_s.direction)

    def test_comm_pattern_per_iteration(self):
        # grad/margins/precond passed in: T length-n rounds + 2T scalar
        # rounds + one concatenating reduce, nothing else
        ds, obj = make_dense_instance(d=12, n=18, seed=124, lam=0.1)
        cfg = ridge_config(tau=10)
        m = 3
        fpart = partition_by_features(ds.X, ds.y, m)
        cl = Cluster(m)
        grad, margins = _FeatureLayout(cl, fpart, SolverConfig(lam=obj.lam, loss=obj.loss)).gradient(np.zeros(12))
        precond = build_preconditioner_features(cfg, fpart, margins)
        cl.reset_stats()
        step = pcg_features(cl, fpart, 1e-10, cfg, grad=grad, margins=margins, precond=precond)
        stats = cl.snapshot_stats()
        T = step.inner_iters
        assert stats.reduceall_rounds == 3 * T
        assert stats.reduce_rounds == 1 and stats.reduce_bytes == 8 * 12
        assert stats.broadcast_rounds == 0
        # bytes: T length-n vector rounds; scalar rounds are 16+24 at t=0
        # (curvature round widened with <r,s>) and 8+24 afterwards
        expected_scalar = (16 + 24) + (8 + 24) * (T - 1)
        assert stats.reduceall_bytes == 8 * 18 * T + expected_scalar

    def test_single_iteration_costs_three_reducealls(self):
        ds, obj = make_dense_instance(d=8, n=10, seed=125, lam=0.1)
        cfg = ridge_config(tau=6, max_inner=1)
        fpart = partition_by_features(ds.X, ds.y, 2)
        cl = Cluster(2)
        grad, margins = _FeatureLayout(cl, fpart, SolverConfig(lam=obj.lam, loss=obj.loss)).gradient(np.zeros(8))
        precond = build_preconditioner_features(cfg, fpart, margins)
        cl.reset_stats()
        pcg_features(cl, fpart, 1e-14, cfg, grad=grad, margins=margins, precond=precond)
        assert cl.snapshot_stats().reduceall_rounds == 3


class TestStandaloneEntryPoints:
    @staticmethod
    def entry_points(mode, cfg, cluster, eps_k=1e-8, zero_gradient=False):
        """The PCG and preconditioner-build calls of ``mode`` on a d=6, n=12
        instance, as zero-argument callables. PCG runs on ``cluster`` and is
        handed the gradient (or zeros), margins and preconditioner at w = 0
        under a valid config, so only ``cfg`` and ``eps_k`` can be at fault."""
        ds, _ = make_dense_instance(d=6, n=12, seed=150)
        samples = mode is PartitionMode.SAMPLES
        part = (partition_by_samples if samples else partition_by_features)(ds.X, ds.y, cluster.m)
        layout_type = _SampleLayout if samples else _FeatureLayout
        layout = layout_type(Cluster(cluster.m), part, ridge_config(mu=0.1, tau=4, mode=mode))
        grad, margins = layout.gradient(np.zeros(6))
        grad = np.zeros(6) if zero_gradient else grad
        inputs = dict(margins=margins, precond=layout.preconditioner(margins))
        if samples:
            return (
                lambda: pcg_samples(cluster, part, eps_k, cfg, grad=grad, **inputs),
                lambda: build_preconditioner(cfg, part),
            )
        return (
            lambda: pcg_features(cluster, part, eps_k, cfg, grad=grad, **inputs),
            lambda: build_preconditioner_features(cfg, part),
        )

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    @pytest.mark.parametrize("field", ["max_inner", "tau"])
    def test_config_is_validated(self, mode, field):
        # max_inner=0 would leave v'Hv unset, and tau=0 would build P = mu*I
        # from no samples
        cfg = dataclasses.replace(ridge_config(mu=0.1, tau=4, mode=mode), **{field: 0})
        for call in self.entry_points(mode, cfg, Cluster(2)):
            with pytest.raises(ValueError, match=f"{field} must be >= 1"):
                call()

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    @pytest.mark.parametrize("eps_k", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_eps(self, mode, eps_k):
        # a NaN tolerance fails every comparison, so "eps_k <= 0" lets it by
        pcg, _ = self.entry_points(mode, ridge_config(tau=4, mode=mode), Cluster(2), eps_k=eps_k)
        with pytest.raises(ValueError, match="eps_k must be positive"):
            pcg()

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_zero_gradient_returns_zero_step(self, mode):
        # a gradient that already meets eps_k: the zero direction after 0
        # iterations, and nothing sent -- the cost model counts only steps
        # with t > 0
        cluster = Cluster(2)
        pcg, _ = self.entry_points(mode, ridge_config(mu=0.1, tau=4, mode=mode), cluster, zero_gradient=True)
        step = pcg()
        assert step.inner_iters == 0 and step.delta == 0.0 and step.converged
        assert np.array_equal(step.direction, np.zeros(6))
        assert cluster.snapshot_stats() == CommStats()


class TestPcgContinuation:
    """A square-loss PCG run continued from the ``PcgState`` a step ends in."""

    @staticmethod
    def setup(mode, loss=LossKind.SQUARE):
        """(call, cluster, ||grad||): ``call(eps_k, start=None)`` runs the
        layout's PCG entry point on ``cluster`` (m = 2) at w = 0 of a d=10,
        n=24 instance, with its gradient, margins and preconditioner."""
        labels = "sign" if loss is LossKind.LOGISTIC else "regression"
        ds, _ = make_dense_instance(d=10, n=24, seed=152, loss=loss, labels=labels)
        cfg = SolverConfig(lam=0.1, mu=0.05, tau=3, loss=loss, partition_mode=mode)
        samples = mode is PartitionMode.SAMPLES
        part = (partition_by_samples if samples else partition_by_features)(ds.X, ds.y, 2)
        layout = (_SampleLayout if samples else _FeatureLayout)(Cluster(2), part, cfg)
        grad, margins = layout.gradient(np.zeros(10))
        precond = layout.preconditioner(margins)
        pcg, cluster = (pcg_samples if samples else pcg_features), Cluster(2)

        def call(eps_k, start=None):
            return pcg(cluster, part, eps_k, cfg, grad=grad, margins=margins, precond=precond, start=start)

        return call, cluster, float(np.linalg.norm(grad))

    @pytest.mark.parametrize("mode", list(PartitionMode))
    def test_a_continued_run_is_the_unrestarted_run(self, mode):
        # stopped at a loose tolerance and continued on the same system
        # (c = 1) to a tight one, a run reaches the iterate of one run to
        # the tight tolerance, bit for bit, in as many iterations
        call, _, gnorm = self.setup(mode)
        whole = call(1e-10 * gnorm)
        first = call(1e-2 * gnorm)
        rest = call(1e-10 * gnorm, start=first.state.scaled(1.0))
        assert 0 < first.inner_iters and 0 < rest.inner_iters
        assert first.inner_iters + rest.inner_iters == whole.inner_iters
        assert rest.direction.tobytes() == whole.direction.tobytes()
        assert (rest.delta, rest.residual_norm) == (whole.delta, whole.residual_norm)

    @pytest.mark.parametrize("mode", list(PartitionMode))
    def test_a_met_carried_residual_returns_the_scaled_start_and_sends_nothing(self, mode):
        call, cluster, gnorm = self.setup(mode)
        step = call(1e-6 * gnorm)
        start = step.state.scaled(0.25)
        cluster.reset_stats()
        again = call(2 * step.residual_norm, start=start)
        assert again.inner_iters == 0 and again.converged and again.state is start
        assert again.direction.tobytes() == (0.25 * step.direction).tobytes()
        assert again.delta == 0.25 * step.delta
        assert cluster.snapshot_stats() == CommStats()

    @pytest.mark.parametrize("mode", list(PartitionMode))
    def test_only_a_square_loss_run_continues(self, mode):
        call, _, gnorm = self.setup(mode)
        state = call(1e-4 * gnorm).state
        call, _, gnorm = self.setup(mode, loss=LossKind.LOGISTIC)
        with pytest.raises(ValueError, match="only a square-loss PCG run continues"):
            call(1e-4 * gnorm, start=state)

    def test_start_of_the_wrong_length_rejected(self):
        call, _, gnorm = self.setup(PartitionMode.FEATURES)
        state = call(1e-4 * gnorm).state
        with pytest.raises(ValueError, match=r"the start's v has shape \(9,\), the problem has d = 10"):
            call(1e-4 * gnorm, start=state._replace(v=state.v[:-1]))

    @pytest.mark.parametrize("mode", list(PartitionMode))
    def test_the_outer_loop_continues_each_square_loss_run(self, mode):
        # step k+1 starts from step k's state with v, Hv and delta scaled by
        # c = delta/(1 + delta), since g_{k+1} - c*Hv_k = r_k for the square
        # loss, up to roundoff; a logistic step starts from v = 0
        for loss in LossKind:
            labels = "sign" if loss is LossKind.LOGISTIC else "regression"
            ds, _ = make_dense_instance(d=10, n=24, seed=153, loss=loss, labels=labels)
            calls = []
            pcg = getattr(solver, f"pcg_{mode.value}")

            def recording(*args, **kwargs):
                calls.append((kwargs, pcg(*args, **kwargs)))
                return calls[-1][1]

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, f"pcg_{mode.value}", recording)
                cfg = SolverConfig(lam=0.1, mu=0.05, tau=3, loss=loss, outer_tol=1e-10, partition_mode=mode)
                assert disco_outer(Cluster(2), ds, cfg).converged
            assert len(calls) > 2 and calls[0][0]["start"] is None
            for (_, prev), (kwargs, _) in zip(calls, calls[1:]):
                start = kwargs["start"]
                if loss is LossKind.LOGISTIC:
                    assert start is None
                    continue
                c = prev.delta / (1.0 + prev.delta)
                assert start.v.tobytes() == (c * prev.state.v).tobytes() and start.delta == c * prev.delta
                assert start.r is prev.state.r and start.u is prev.state.u
                gap = np.linalg.norm(kwargs["grad"] - c * prev.state.Hv - prev.state.r)
                assert gap <= 1e-12 * np.linalg.norm(calls[0][0]["grad"])


@pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
@pytest.mark.parametrize("m", [2, 4])
def test_cluster_of_another_node_count_rejected(mode, m):
    # a 2-node cluster on a 3-node sample partition once returned a direction
    # 2.7 off in max-abs; the other mismatches failed with an IndexError or a
    # numpy broadcast error
    ds, _ = make_dense_instance(d=6, n=12, seed=150)
    cfg = ridge_config(tau=2, mode=mode)
    samples = mode is PartitionMode.SAMPLES
    part = (partition_by_samples if samples else partition_by_features)(ds.X, ds.y, 3)
    layout = (_SampleLayout if samples else _FeatureLayout)(Cluster(3), part, cfg)
    grad, margins = layout.gradient(np.zeros(6))
    inputs = dict(grad=grad, margins=margins, precond=layout.preconditioner(margins))
    with pytest.raises(ValueError, match=f"cluster has {m} nodes, partition has 3 shards"):
        (pcg_samples if samples else pcg_features)(Cluster(m), part, 1e-8, cfg, **inputs)


@pytest.mark.parametrize("entry", [pcg_samples, pcg_features, build_preconditioner, build_preconditioner_features],
                         ids=lambda f: f.__name__)
def test_a_partition_of_the_other_kind_is_rejected(entry):
    # at d == n a partition of the other kind has every shape an entry point
    # checks: on this data at m = 4, pcg_samples over the feature partition
    # once returned a direction 28 off pcg_features' in max-abs, after 104
    # inner iterations against 96, and each builder read the default tau off
    # the other dimension
    ds, _ = make_dense_instance(d=40, n=40, seed=7)
    cfg = ridge_config(tau=None)
    samples = entry in (pcg_samples, build_preconditioner)
    right = (partition_by_samples if samples else partition_by_features)(ds.X, ds.y, 4)
    wrong = (partition_by_features if samples else partition_by_samples)(ds.X, ds.y, 4)
    want, got = ("SamplePartition", "FeaturePartition") if samples else ("FeaturePartition", "SamplePartition")
    with pytest.raises(TypeError, match=f"expected a {want}, got a {got}"):
        if entry in (pcg_samples, pcg_features):
            layout = (_SampleLayout if samples else _FeatureLayout)(Cluster(4), right, cfg)
            grad, margins = layout.gradient(np.ones(40))
            entry(Cluster(4), wrong, 1e-8, cfg, grad=grad, margins=margins, precond=layout.preconditioner(margins))
        else:
            entry(cfg, wrong)


@pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
def test_margins_of_the_wrong_shape_rejected(mode):
    # length-1 margins once broadcast against the labels: the feature layout
    # built its preconditioner and returned a direction 0.01 off the true one
    ds, _ = make_dense_instance(d=8, n=12, seed=126, loss=LossKind.LOGISTIC, labels="sign")
    cfg = SolverConfig(lam=0.1, mu=0.1, tau=4, loss=LossKind.LOGISTIC, partition_mode=mode)
    if mode is PartitionMode.SAMPLES:
        layout = _SampleLayout(Cluster(2), partition_by_samples(ds.X, ds.y, 2), cfg)
    else:
        layout = _FeatureLayout(Cluster(2), partition_by_features(ds.X, ds.y, 2), cfg)
    grad, margins = layout.gradient(np.full(8, 0.1))
    precond = layout.preconditioner(margins)
    short = margins[:1]
    with pytest.raises(ValueError, match=r"margins have shape \(1,\), labels \(\d+,\)"):
        layout.preconditioner(short)
    with pytest.raises(ValueError, match=r"margins have shape \(1,\), labels \(\d+,\)"):
        layout.newton_step(1e-8, grad, short, precond)


def zero_one_problem():
    """A d=5, n=12 logistic problem whose labels are {0, 1}, not {-1, +1},
    partitioned over 2 nodes both ways."""
    ds, _ = make_dense_instance(d=5, n=12, seed=149, labels="sign")
    y = (ds.y + 1) / 2
    return SimpleNamespace(
        ds=Dataset(X=ds.X, y=y, d=5, n=12, source="0/1 labels"),
        obj=Objective(loss=LossKind.LOGISTIC, lam=0.1, n=12, d=5),
        cfg=SolverConfig(lam=0.1, mu=0.1, tau=4, loss=LossKind.LOGISTIC),
        spart=partition_by_samples(ds.X, y, 2),
        fpart=partition_by_features(ds.X, y, 2),
        w=np.zeros(5),
    )


@pytest.mark.parametrize("call", [
    pytest.param(lambda p: grad_coeffs(LossKind.LOGISTIC, np.zeros(12), p.ds.y), id="grad_coeffs"),
    pytest.param(lambda p: hess_coeffs(LossKind.LOGISTIC, np.zeros(12), p.ds.y), id="hess_coeffs"),
    pytest.param(lambda p: objective_value(p.obj, p.ds.X, p.ds.y, p.w), id="objective_value"),
    pytest.param(lambda p: full_gradient(p.obj, p.ds.X, p.ds.y, p.w), id="full_gradient"),
    pytest.param(lambda p: hess_vec_dense(p.obj, p.ds.X, p.ds.y, p.w, p.w), id="hess_vec_dense"),
    pytest.param(lambda p: DenseNewtonOracle(p.ds, p.obj).gradient(p.w), id="oracle_gradient"),
    pytest.param(lambda p: DenseNewtonOracle(p.ds, p.obj).hessian(p.w), id="oracle_hessian"),
    pytest.param(lambda p: newton_step(Cluster(2), p.spart, p.w, 1e-8, p.cfg), id="pcg_samples"),
    pytest.param(lambda p: newton_step(Cluster(2), p.fpart, p.w, 1e-8, p.cfg), id="pcg_features"),
    pytest.param(lambda p: build_preconditioner(p.cfg, p.spart, np.zeros(12)), id="build_preconditioner"),
    pytest.param(lambda p: build_preconditioner_features(p.cfg, p.fpart, np.zeros(12)),
                 id="build_preconditioner_features"),
])
def test_every_logistic_entry_point_rejects_labels_outside_plus_minus_one(call):
    with pytest.raises(ValueError, match=r"labels in \{-1, \+1\}; found 1 other value\(s\): \[0\.0\]"):
        call(zero_one_problem())


class TestPcgInvariants:
    @staticmethod
    def pcg_at_random_w(ds, m, mode, eps_k):
        """A random iterate w and the ``mode`` PCG solve at w as a function
        of the config."""
        rng = np.random.default_rng(130)
        w = rng.standard_normal(ds.d)
        partition = partition_by_samples if mode is PartitionMode.SAMPLES else partition_by_features
        part = partition(ds.X, ds.y, m)
        return w, lambda cfg: newton_step(Cluster(m), part, w, eps_k, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", list(PartitionMode))
    @pytest.mark.parametrize("poisoned_apply,error,message", [
        (1, RuntimeError, "breakdown at inner iteration 0"),  # the initial s: u'Hu is not positive
        (2, FloatingPointError, "non-finite PCG state at inner iteration 0"),
        (3, FloatingPointError, "non-finite PCG state at inner iteration 1"),
    ])
    def test_non_finite_preconditioned_residual_fails_loudly(
        self, monkeypatch, value, mode, poisoned_apply, error, message,
    ):
        # the block solves skip scipy's finiteness scan; the per-iteration
        # scalar checks must stop the same inner solve instead
        ds, _ = make_dense_instance(d=12, n=30, seed=133, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.02, tau=10)
        original = BlockPreconditioner.apply
        calls = []

        def poisoned(precond, r):
            out = original(precond, r)
            calls.append(None)
            if len(calls) == poisoned_apply:
                out[0] = value
            return out

        monkeypatch.setattr(BlockPreconditioner, "apply", poisoned)
        _, pcg = self.pcg_at_random_w(ds, 2, mode, eps_k=1e-10)
        with pytest.raises(error, match=message):
            pcg(cfg)

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_residual_and_hv_recomputable(self, mode):
        # r_t as handed to the preconditioner equals grad - H v_t, and delta_t
        # of the solve stopped at t equals sqrt(v_t' H v_t): the running Hv
        # the recurrence keeps is seen through delta
        ds, obj = make_dense_instance(d=12, n=30, seed=131, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.02, tau=10)
        w, pcg = self.pcg_at_random_w(ds, 2, mode, eps_k=1e-10)
        step, residuals = preconditioned_residuals(lambda: pcg(cfg))
        its = inner_steps(pcg, cfg)
        assert len(residuals) == len(its) + 1 == step.inner_iters + 1
        oracle = DenseNewtonOracle(ds, obj)
        H = oracle.hessian(w)
        grad = oracle.gradient(w)
        assert np.linalg.norm(residuals[0] - grad) <= 5e-9 * max(1.0, np.linalg.norm(grad))
        for r, it in zip(residuals[1:], its):
            hv = H @ it.direction
            assert np.linalg.norm(r - (grad - hv)) <= 5e-9 * max(1.0, np.linalg.norm(grad))
            assert it.residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-12)
            assert it.delta**2 == pytest.approx(float(it.direction @ hv), rel=1e-9)

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_monotone_energy_norm(self, mode):
        ds, obj = make_dense_instance(d=14, n=35, seed=132, lam=0.15)
        cfg = ridge_config(lam=0.15, mu=0.01, tau=12)
        w, pcg = self.pcg_at_random_w(ds, 2, mode, eps_k=1e-11)
        oracle = DenseNewtonOracle(ds, obj)
        H = oracle.hessian(w)
        v_star = oracle.newton_direction(w)
        energies = [float((it.direction - v_star) @ H @ (it.direction - v_star)) for it in inner_steps(pcg, cfg)]
        for prev, cur in zip(energies, energies[1:]):
            assert cur <= prev * (1 + 1e-10) + 1e-15

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_finite_termination(self, mode):
        # a near-full subsample keeps the Krylov cliff well inside d steps,
        # so the deep tolerance is reached within d iterations despite float
        ds, _ = make_dense_instance(d=20, n=80, seed=133, lam=0.5)
        cfg = ridge_config(lam=0.5, mu=0.5, tau=40, max_inner=20)
        _, pcg = self.pcg_at_random_w(ds, 2, mode, eps_k=1e-13)
        step = pcg(cfg)
        assert step.converged and step.inner_iters <= 20

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_inner_step_certificate(self, mode):
        # on return, ||H v - grad|| <= eps_k (plus float slack)
        ds, obj = make_dense_instance(d=15, n=40, seed=134, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.02, tau=12)
        eps_k = 1e-6
        w, pcg = self.pcg_at_random_w(ds, 3, mode, eps_k=eps_k)
        step = pcg(cfg)
        oracle = DenseNewtonOracle(ds, obj)
        resid = oracle.hessian(w) @ step.direction - oracle.gradient(w)
        assert np.linalg.norm(resid) <= eps_k + 1e-9

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_delta_certificate(self, mode):
        ds, obj = make_dense_instance(d=11, n=28, seed=135, lam=0.25)
        cfg = ridge_config(lam=0.25, mu=0.02, tau=9)
        w, pcg = self.pcg_at_random_w(ds, 2, mode, eps_k=1e-8)
        step = pcg(cfg)
        H = DenseNewtonOracle(ds, obj).hessian(w)
        expected = float(step.direction @ H @ step.direction)
        assert step.delta**2 == pytest.approx(expected, rel=1e-8)


class TestDiscoOuter:
    def test_damped_update_hand_case(self):
        assert np.array_equal(damped_update(np.array([1.0]), np.array([1.0]), 1.0), [0.5])

    def test_zero_direction_is_fixed_point(self):
        w = np.array([0.4, -0.2])
        assert np.array_equal(damped_update(w, np.zeros(2), 0.0), w)

    def test_zero_gradient_returns_immediately(self):
        # all-zero labels and w0 = 0 give a zero gradient at the start
        rng = np.random.default_rng(140)
        X = SparseBlock.from_dense(rng.standard_normal((4, 6)))
        ds = Dataset(X=X, y=np.zeros(6), d=4, n=6, source="zero")
        res = disco_outer(Cluster(1), ds, ridge_config(tau=6))
        assert res.converged and res.updates == 0 and res.grad_evals == 1
        assert np.array_equal(res.w, np.zeros(4))

    def test_counts_read_from_the_trace(self):
        ds, _ = make_dense_instance(d=6, n=12, seed=141)
        res = disco_outer(Cluster(2), ds, ridge_config(tau=4))
        assert res.grad_evals == len(res.trace) and res.updates == len(res.trace) - 1 > 0
        with pytest.raises(AttributeError):
            res.updates = 0

    def test_synthetic_ridge_matches_closed_form(self):
        from disco.harness import gen_synthetic

        ds = gen_synthetic(12, 30, density=0.9, noise=0.05, seed=7)
        cfg = ridge_config(lam=0.1, mu=0.1, tau=None, theta=1e-6, outer_tol=1e-10)
        res = disco_outer(Cluster(2), ds, cfg)
        assert res.converged and res.updates <= 10 and res.inner_unconverged == 0
        w_ref = ridge_closed_form(ds, 0.1)
        assert np.linalg.norm(res.w - w_ref) <= 1e-6 * np.linalg.norm(w_ref)

    def test_quadratic_damping_contraction(self):
        # with a near-exact inner solve, one damped step contracts the
        # gradient by exactly delta/(1+delta)
        ds, obj = make_dense_instance(d=8, n=24, seed=142, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.02, tau=12, theta=1e-12, max_outer=1)
        res, steps, _ = recorded_solve(Cluster(2), ds, cfg)
        g0 = res.trace[0].grad_norm
        g1 = res.trace[1].grad_norm
        delta0 = steps[0].delta
        assert g1 <= (delta0 / (1 + delta0)) * g0 + 1e-9 * g0

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_layout_equivalence(self, m):
        ds, _ = make_dense_instance(d=12, n=32, seed=143, lam=0.15)
        tau = min(8, 32 // m)
        runs = {}
        for mode in (PartitionMode.SAMPLES, PartitionMode.FEATURES):
            cfg = ridge_config(lam=0.15, mu=0.02, tau=tau, theta=1e-4, outer_tol=1e-9, mode=mode)
            runs[mode] = recorded_solve(Cluster(m), ds, cfg)
        (rs, steps_s, iterates_s), (rf, steps_f, iterates_f) = runs[PartitionMode.SAMPLES], runs[PartitionMode.FEATURES]
        # a square-loss solve sums each product and dot product over both
        # layouts' splits in node order, so the iterates agree bit for bit
        assert rs.updates == rf.updates
        assert [step.inner_iters for step in steps_s] == [step.inner_iters for step in steps_f]
        for ws, wf in zip(iterates_s, iterates_f):
            assert ws.tobytes() == wf.tobytes()

    def test_logistic_converges_both_modes(self):
        ds, _ = make_dense_instance(d=6, n=40, seed=144, loss=LossKind.LOGISTIC, labels="sign")
        results = []
        for mode in (PartitionMode.SAMPLES, PartitionMode.FEATURES):
            cfg = SolverConfig(
                lam=0.05, mu=0.01, tau=10, loss=LossKind.LOGISTIC, theta=1e-4,
                outer_tol=1e-9, partition_mode=mode,
            )
            results.append(disco_outer(Cluster(2), ds, cfg))
        assert all(r.converged for r in results)
        assert np.linalg.norm(results[0].w - results[1].w) <= 1e-7 * np.linalg.norm(results[0].w)

    def test_trace_is_monotone(self):
        ds, _ = make_dense_instance(d=10, n=26, seed=145)
        res = disco_outer(Cluster(2), ds, ridge_config(tau=8, outer_tol=1e-9))
        trace = res.trace
        assert [t.outer_iter for t in trace] == list(range(len(trace)))
        for a, b in zip(trace, trace[1:]):
            assert b.inner_iters_cum >= a.inner_iters_cum
            assert b.rounds_cum > a.rounds_cum
            assert b.bytes_cum > a.bytes_cum
            assert b.wall_ms >= a.wall_ms

    def test_non_finite_objective_raises(self):
        huge = 1e160
        X = SparseBlock.from_dense(huge * np.eye(3))
        ds = Dataset(X=X, y=np.full(3, huge), d=3, n=3, source="overflow")
        with pytest.raises(FloatingPointError, match="non-finite"):
            disco_outer(Cluster(1), ds, ridge_config(tau=3))

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_counts_inner_solves_stopped_at_max_inner(self, mode):
        ds, _ = make_dense_instance(d=10, n=24, seed=148, lam=1e-3)
        cfg = ridge_config(lam=1e-3, mu=1.0, tau=6, max_inner=1, max_outer=3, mode=mode)
        res = disco_outer(Cluster(2), ds, cfg)
        assert 0 < res.inner_unconverged <= res.updates

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_logistic_rejects_labels_outside_plus_minus_one(self, mode):
        ds, _ = make_dense_instance(d=5, n=12, seed=149, labels="sign")
        zero_one = Dataset(X=ds.X, y=(ds.y + 1) / 2, d=5, n=12, source="0/1 labels")
        cfg = SolverConfig(lam=0.1, mu=0.1, tau=4, loss=LossKind.LOGISTIC, partition_mode=mode)
        with pytest.raises(ValueError, match=r"labels in \{-1, \+1\}.*\[0\.0\]"):
            disco_outer(Cluster(2), zero_one, cfg)

    def test_tau_larger_than_shard_rejected(self):
        ds, _ = make_dense_instance(d=6, n=12, seed=147)
        cfg = ridge_config(tau=7)  # master shard holds only 6 samples at m=2
        with pytest.raises(ValueError, match="tau"):
            disco_outer(Cluster(2), ds, cfg)

    @pytest.mark.parametrize("field, value, message", [
        ("lam", -1.0, "lam must be positive"),
        ("theta", 0.0, "theta must be positive"),
        ("theta", 1.0, "theta must be below 1"),
        ("tau", 0, "tau must be >= 1"),
        ("mu", -1e-3, "mu must be positive"),
        # mu = 0 leaves a block with tau < d_b singular
        ("mu", 0.0, "mu must be positive"),
        ("outer_tol", 0.0, "outer_tol must be positive"),
        ("max_outer", -1, "max_outer must be >= 0"),
        ("max_inner", 0, "max_inner must be >= 1"),
        # counts that are not integers once failed deep inside the solve, and
        # tau=True ran as tau=1
        ("tau", 2.5, "tau must be an integer"),
        ("tau", 2.0, "tau must be an integer"),
        ("tau", True, "tau must be an integer"),
        ("max_inner", 2.5, "max_inner must be an integer"),
        ("max_inner", False, "max_inner must be an integer"),
        ("max_outer", 2.5, "max_outer must be an integer"),
        ("max_outer", True, "max_outer must be an integer"),
        ("max_outer", None, "max_outer must be an integer"),
    ])
    def test_config_validation(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(SolverConfig(lam=1.0), **{field: value}).validate()

    def test_numpy_integer_counts_solve_as_ints(self):
        ds, _ = make_dense_instance(d=6, n=12, seed=148)
        runs = []
        for as_count in (int, np.int64):
            cfg = ridge_config(tau=as_count(4), max_inner=as_count(20), max_outer=as_count(5))
            cluster = Cluster(as_count(2))
            result = disco_outer(cluster, ds, cfg)
            runs.append((result.w.tobytes(), cluster.snapshot_stats(), result.inner_iters_total, result.updates))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("field", ["lam", "mu", "theta", "outer_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, field, value):
        # every comparison with NaN is false, so a sign check alone lets it by
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(SolverConfig(lam=1.0), **{field: value}).validate()

    @pytest.mark.parametrize("field", ["lam", "mu", "theta", "outer_tol"])
    @pytest.mark.parametrize("value", [True, "0.1", None])
    def test_config_rejects_non_real(self, field, value):
        # lam=True once solved with lam = 1, and a string failed inside math.isfinite
        with pytest.raises(ValueError, match=f"{field} must be a real number, got {value!r}"):
            dataclasses.replace(SolverConfig(lam=1.0), **{field: value}).validate()

    def test_string_kinds_solve_as_their_enum_members(self):
        """A string partition mode and loss, given at construction or assigned
        later, run the sample layout, exactly as the enum members do: one
        broadcast and one reduce_all per gradient evaluation and per inner
        iteration, 54 of each here."""
        ds = gen_synthetic(20, 40, 0.5, 0.1, 1)
        by_string = SolverConfig(lam=0.1, tau=5)
        by_string.partition_mode, by_string.loss = "samples", "square"
        runs = []
        for cfg in (
            SolverConfig(lam=0.1, tau=5, partition_mode=PartitionMode.SAMPLES, loss=LossKind.SQUARE),
            SolverConfig(lam=0.1, tau=5, partition_mode="samples", loss="square"),
            by_string,
        ):
            cluster = Cluster(2)
            result = disco_outer(cluster, ds, cfg)
            stats = cluster.snapshot_stats()
            rounds = result.inner_iters_total + result.grad_evals
            assert stats.broadcast_rounds == stats.reduceall_rounds == rounds == 54
            runs.append((result.w.tobytes(), stats, result.inner_iters_total, result.updates))
            assert cfg.partition_mode is PartitionMode.SAMPLES and cfg.loss is LossKind.SQUARE
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("field, value, allowed", [
        ("partition_mode", "sample", "'samples', 'features'"),
        ("partition_mode", "SAMPLES", "'samples', 'features'"),
        ("loss", "squared", "'square', 'logistic'"),
        ("loss", None, "'square', 'logistic'"),
    ])
    def test_config_rejects_unknown_kinds(self, field, value, allowed):
        with pytest.raises(ValueError, match=f"expected one of {allowed}"):
            SolverConfig(lam=1.0, **{field: value})
        cfg = SolverConfig(lam=1.0)
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=f"expected one of {allowed}"):
            cfg.validate()


@pytest.mark.parametrize("module", [
    "disco", "disco.comm", "disco.linalg", "disco.losses", "disco.partition", "disco.solver",
    "disco.harness", "disco.harness.cli", "disco.harness.datasets", "disco.harness.trace",
])
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition goes breaks ``import *``
    module = importlib.import_module(module)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
