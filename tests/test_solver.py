import math

import numpy as np
import pytest

from disco import (
    Cluster,
    Dataset,
    LossKind,
    Objective,
    PartitionMode,
    SolverConfig,
    SparseBlock,
    disco_outer,
    full_gradient,
    hess_vec_dense,
    partition_by_features,
    partition_by_samples,
    pcg_features,
    pcg_samples,
)
from disco.harness import DenseNewtonOracle, ridge_closed_form
from disco.partition import balanced_sizes
from disco.solver import (
    _FeatureLayout,
    build_preconditioner,
    build_preconditioner_features,
    damped_update,
    feature_margins,
    hessian_vec_features,
    hessian_vec_samples,
)

from conftest import make_dense_instance


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
        ds, obj = make_dense_instance(d=8, n=8, seed=70, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.05, tau=4)
        spart = partition_by_samples(ds.X, ds.y, 1)
        P = build_preconditioner(obj, cfg, spart.shards[0], spart.labels[0], np.zeros(8), [8])
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
        P = build_preconditioner(obj, cfg, spart.shards[0], spart.labels[0], None, [6])
        H = DenseNewtonOracle(ds, obj).hessian(np.zeros(6))
        r = np.random.default_rng(73).standard_normal(6)
        assert np.linalg.norm(P.apply(r) - np.linalg.solve(H, r)) < 1e-10

    def test_large_mu_is_scaled_identity(self):
        ds, obj = make_dense_instance(d=5, n=8, seed=74)
        mu = 1e9
        cfg = ridge_config(mu=mu, tau=8)
        spart = partition_by_samples(ds.X, ds.y, 1)
        P = build_preconditioner(obj, cfg, spart.shards[0], spart.labels[0], None, [5])
        r = np.random.default_rng(75).standard_normal(5)
        assert np.linalg.norm(P.apply(r) - r / mu) <= 1e-8 * np.linalg.norm(r) / mu

    def test_multiply_back(self):
        ds, obj = make_dense_instance(d=6, n=9, seed=76)
        cfg = ridge_config(mu=0.02, tau=6)
        spart = partition_by_samples(ds.X, ds.y, 1)
        P = build_preconditioner(obj, cfg, spart.shards[0], spart.labels[0], None, [6])
        dense = brute_force_curvature(ds.X.toarray(), np.full(9, 2.0), tau=6, mu=0.02)
        r = np.random.default_rng(77).standard_normal(6)
        assert np.linalg.norm(dense @ P.apply(r) - r) <= 1e-10 * np.linalg.norm(r)

    def test_non_pd_failure_names_mu(self):
        # tau < d with mu = 0 leaves the estimate rank-deficient
        ds, obj = make_dense_instance(d=8, n=8, seed=78)
        cfg = ridge_config(mu=0.0, tau=3)
        spart = partition_by_samples(ds.X, ds.y, 1)
        with pytest.raises(np.linalg.LinAlgError, match="mu"):
            build_preconditioner(obj, cfg, spart.shards[0], spart.labels[0], None, [8])

    def test_sample_and_feature_builds_agree_blockwise(self):
        # tau must not exceed the master shard so both layouts see the same
        # subsample (the first tau global samples)
        ds, obj = make_dense_instance(d=9, n=12, seed=79, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.05, tau=4)
        m = 3
        spart = partition_by_samples(ds.X, ds.y, m)
        fpart = partition_by_features(ds.X, ds.y, m)
        Ps = build_preconditioner(obj, cfg, spart.shards[0], spart.labels[0], None, balanced_sizes(9, m))
        Pf = build_preconditioner_features(obj, cfg, fpart, None)
        rng = np.random.default_rng(80)
        r = rng.standard_normal(9)
        got = np.concatenate(
            [Pf.apply_block(i, r[o:o + s]) for i, (o, s) in enumerate(zip(Pf.offsets, Pf.sizes))]
        )
        assert np.array_equal(Ps.apply(r), got)

    def test_block_solve_dimension_check(self):
        ds, obj = make_dense_instance(d=6, n=8, seed=81)
        cfg = ridge_config(mu=0.1, tau=4)
        spart = partition_by_samples(ds.X, ds.y, 1)
        P = build_preconditioner(obj, cfg, spart.shards[0], spart.labels[0], None, [6])
        with pytest.raises(ValueError):
            P.apply(np.zeros(5))


class TestHessianVecSamples:
    def test_single_node_bit_exact(self):
        ds, obj = make_dense_instance(d=8, n=14, seed=90, lam=0.2)
        spart = partition_by_samples(ds.X, ds.y, 1)
        rng = np.random.default_rng(91)
        w, u = rng.standard_normal(8), rng.standard_normal(8)
        got = hessian_vec_samples(Cluster(1), spart, obj, w, u)
        assert np.array_equal(got, hess_vec_dense(obj, ds.X, ds.y, w, u))

    @pytest.mark.parametrize("loss,labels", [(LossKind.SQUARE, "regression"), (LossKind.LOGISTIC, "sign")])
    def test_multi_node_matches_dense(self, loss, labels):
        ds, obj = make_dense_instance(d=8, n=30, seed=92, lam=0.2, loss=loss, labels=labels)
        spart = partition_by_samples(ds.X, ds.y, 3)
        rng = np.random.default_rng(93)
        w, u = rng.standard_normal(8), rng.standard_normal(8)
        got = hessian_vec_samples(Cluster(3), spart, obj, w, u)
        expected = hess_vec_dense(obj, ds.X, ds.y, w, u)
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    def test_zero_direction_still_costs_two_rounds(self):
        ds, obj = make_dense_instance(d=6, n=9, seed=94)
        spart = partition_by_samples(ds.X, ds.y, 3)
        cl = Cluster(3)
        got = hessian_vec_samples(cl, spart, obj, np.zeros(6), np.zeros(6))
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
        got = hessian_vec_features(Cluster(1), fpart, obj, [u])
        assert np.array_equal(got[0], hess_vec_dense(obj, ds.X, ds.y, np.zeros(7), u))

    @pytest.mark.parametrize("loss,labels", [(LossKind.SQUARE, "regression"), (LossKind.LOGISTIC, "sign")])
    def test_multi_node_matches_dense(self, loss, labels):
        ds, obj = make_dense_instance(d=20, n=12, seed=97, lam=0.2, loss=loss, labels=labels)
        m = 4
        fpart = partition_by_features(ds.X, ds.y, m)
        cl = Cluster(m)
        rng = np.random.default_rng(98)
        w, u = rng.standard_normal(20), rng.standard_normal(20)
        w_blocks = [w[o:o + s] for o, s in zip(fpart.offsets, fpart.sizes)]
        u_blocks = [u[o:o + s] for o, s in zip(fpart.offsets, fpart.sizes)]
        margins = feature_margins(cl, fpart, w_blocks)
        got = np.concatenate(hessian_vec_features(cl, fpart, obj, u_blocks, margins))
        expected = hess_vec_dense(obj, ds.X, ds.y, w, u)
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    def test_costs_one_length_n_round(self):
        ds, obj = make_dense_instance(d=8, n=13, seed=99)
        fpart = partition_by_features(ds.X, ds.y, 2)
        cl = Cluster(2)
        u_blocks = [np.zeros(s) for s in fpart.sizes]
        hessian_vec_features(cl, fpart, obj, u_blocks)
        stats = cl.snapshot_stats()
        assert stats.reduceall_rounds == 1 and stats.reduceall_bytes == 8 * 13
        assert stats.broadcast_rounds == 0

    def test_coupling_through_margins(self):
        # direction supported on node 0's features still produces nonzero
        # blocks elsewhere via the shared sample space
        ds, obj = make_dense_instance(d=6, n=9, seed=100, lam=0.5)
        fpart = partition_by_features(ds.X, ds.y, 2)
        cl = Cluster(2)
        u_blocks = [np.ones(fpart.sizes[0]), np.zeros(fpart.sizes[1])]
        got = hessian_vec_features(cl, fpart, obj, u_blocks)
        assert np.linalg.norm(got[1]) > 0  # data coupling, lam * 0 = 0


class TestPcgSamples:
    def test_exact_preconditioner_converges_in_one_iteration(self):
        ds, obj = make_dense_instance(d=6, n=10, seed=110, lam=0.3)
        cfg = ridge_config(lam=0.3, mu=0.3, tau=10)
        spart = partition_by_samples(ds.X, ds.y, 1)
        rng = np.random.default_rng(111)
        w = rng.standard_normal(6)
        step = pcg_samples(Cluster(1), spart, obj, w, eps_k=1e-10, config=cfg)
        assert step.converged and step.inner_iters == 1

    def test_hand_case_2x2(self):
        # identity data, lam = 1 -> H = 2I; solve H v = [2, 0]
        X = SparseBlock.from_dense(np.eye(2))
        y = np.array([1.0, 1.0])
        ds = Dataset(X=X, y=y, d=2, n=2, source="hand")
        obj = Objective(loss=LossKind.SQUARE, lam=1.0, n=2, d=2)
        cfg = ridge_config(lam=1.0, mu=1.0, tau=2)
        spart = partition_by_samples(X, y, 1)
        step = pcg_samples(
            Cluster(1), spart, obj, np.zeros(2), eps_k=1e-12, config=cfg,
            grad=np.array([2.0, 0.0]),
        )
        assert np.allclose(step.direction, [1.0, 0.0], atol=1e-12)
        assert step.delta == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_dense_solve(self, m):
        ds, obj = make_dense_instance(d=10, n=25, seed=112, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.01, tau=6)
        spart = partition_by_samples(ds.X, ds.y, m)
        rng = np.random.default_rng(113)
        w = rng.standard_normal(10)
        step = pcg_samples(Cluster(m), spart, obj, w, eps_k=1e-12, config=cfg)
        expected = DenseNewtonOracle(ds, obj).newton_direction(w)
        assert step.converged
        assert np.linalg.norm(step.direction - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_comm_pattern_per_iteration(self):
        ds, obj = make_dense_instance(d=12, n=30, seed=114, lam=0.1)
        cfg = ridge_config(tau=8)
        m = 3
        spart = partition_by_samples(ds.X, ds.y, m)
        cl = Cluster(m)
        w = np.zeros(12)
        grad = full_gradient(obj, ds.X, ds.y, w)
        precond = build_preconditioner(obj, cfg, spart.shards[0], spart.labels[0], w, balanced_sizes(12, m))
        cl.reset_stats()
        step = pcg_samples(cl, spart, obj, w, eps_k=1e-10, config=cfg, grad=grad, precond=precond)
        stats = cl.snapshot_stats()
        T = step.inner_iters
        assert stats.broadcast_rounds == T and stats.reduceall_rounds == T
        assert stats.broadcast_bytes == 8 * 12 * T and stats.reduceall_bytes == 8 * 12 * T
        assert stats.reduce_rounds == 0

    def test_standalone_call_meters_initial_gradient_exchange(self):
        ds, obj = make_dense_instance(d=9, n=18, seed=115, lam=0.1)
        cfg = ridge_config(tau=6)
        m = 2
        spart = partition_by_samples(ds.X, ds.y, m)
        cl = Cluster(m)
        step = pcg_samples(cl, spart, obj, np.zeros(9), eps_k=1e-10, config=cfg)
        stats = cl.snapshot_stats()
        T = step.inner_iters
        assert stats.broadcast_rounds == T + 1 and stats.reduceall_rounds == T + 1

    def test_max_inner_flags_not_converged(self):
        ds, obj = make_dense_instance(d=10, n=20, seed=116, lam=1e-3)
        cfg = ridge_config(lam=1e-3, mu=1.0, tau=4, max_inner=2)
        spart = partition_by_samples(ds.X, ds.y, 1)
        step = pcg_samples(Cluster(1), spart, obj, np.zeros(10), eps_k=1e-14, config=cfg)
        assert not step.converged and step.inner_iters == 2

    def test_rejects_nonpositive_eps(self):
        ds, obj = make_dense_instance(d=4, n=8, seed=117)
        spart = partition_by_samples(ds.X, ds.y, 1)
        with pytest.raises(ValueError, match="eps_k"):
            pcg_samples(Cluster(1), spart, obj, np.zeros(4), eps_k=0.0, config=ridge_config(tau=4))

    def test_zero_gradient_returns_zero_step(self):
        ds, obj = make_dense_instance(d=5, n=9, seed=118)
        spart = partition_by_samples(ds.X, ds.y, 1)
        step = pcg_samples(
            Cluster(1), spart, obj, np.zeros(5), eps_k=1e-8, config=ridge_config(tau=5),
            grad=np.zeros(5),
        )
        assert step.inner_iters == 0 and step.delta == 0.0
        assert np.array_equal(step.direction, np.zeros(5))


class TestPcgFeatures:
    def test_single_node_bit_identical_to_samples(self):
        ds, obj = make_dense_instance(d=10, n=22, seed=120, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.02, tau=9)
        rng = np.random.default_rng(121)
        w = rng.standard_normal(10)
        spart = partition_by_samples(ds.X, ds.y, 1)
        fpart = partition_by_features(ds.X, ds.y, 1)
        step_s = pcg_samples(Cluster(1), spart, obj, w, eps_k=1e-9, config=cfg, record_history=True)
        step_f = pcg_features(Cluster(1), fpart, obj, [w], eps_k=1e-9, config=cfg, record_history=True)
        assert step_s.inner_iters == step_f.inner_iters
        assert np.array_equal(step_s.direction, step_f.direction)
        assert step_s.delta == step_f.delta
        for it_s, it_f in zip(step_s.history, step_f.history):
            assert np.array_equal(it_s.direction, it_f.direction)
            assert np.array_equal(it_s.residual, it_f.residual)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_dense_solve_and_cross_layout(self, m):
        ds, obj = make_dense_instance(d=10, n=25, seed=122, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.01, tau=6)
        rng = np.random.default_rng(123)
        w = rng.standard_normal(10)
        fpart = partition_by_features(ds.X, ds.y, m)
        w_blocks = [w[o:o + s] for o, s in zip(fpart.offsets, fpart.sizes)]
        step_f = pcg_features(Cluster(m), fpart, obj, w_blocks, eps_k=1e-12, config=cfg)
        expected = DenseNewtonOracle(ds, obj).newton_direction(w)
        assert np.linalg.norm(step_f.direction - expected) <= 1e-8 * np.linalg.norm(expected)
        spart = partition_by_samples(ds.X, ds.y, m)
        step_s = pcg_samples(Cluster(m), spart, obj, w, eps_k=1e-12, config=cfg)
        assert np.linalg.norm(step_f.direction - step_s.direction) <= 1e-8 * np.linalg.norm(step_s.direction)

    def test_comm_pattern_per_iteration(self):
        # grad/margins/precond passed in: T length-n rounds + 2T scalar
        # rounds + one concatenating reduce, nothing else
        ds, obj = make_dense_instance(d=12, n=18, seed=124, lam=0.1)
        cfg = ridge_config(tau=10)
        m = 3
        fpart = partition_by_features(ds.X, ds.y, m)
        cl = Cluster(m)
        w_blocks = [np.zeros(s) for s in fpart.sizes]
        grad_blocks, margins = _FeatureLayout(cl, fpart, obj).gradient(w_blocks)
        precond = build_preconditioner_features(obj, cfg, fpart, margins[0])
        cl.reset_stats()
        step = pcg_features(
            cl, fpart, obj, w_blocks, eps_k=1e-10, config=cfg,
            grad_blocks=grad_blocks, margins=margins, precond=precond,
        )
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
        w_blocks = [np.zeros(s) for s in fpart.sizes]
        grad_blocks, margins = _FeatureLayout(cl, fpart, obj).gradient(w_blocks)
        precond = build_preconditioner_features(obj, cfg, fpart, margins[0])
        cl.reset_stats()
        pcg_features(cl, fpart, obj, w_blocks, eps_k=1e-14, config=cfg,
                     grad_blocks=grad_blocks, margins=margins, precond=precond)
        assert cl.snapshot_stats().reduceall_rounds == 3


class TestPcgInvariants:
    @staticmethod
    def run_with_history(ds, obj, cfg, m, mode, eps_k):
        rng = np.random.default_rng(130)
        w = rng.standard_normal(ds.d)
        if mode is PartitionMode.SAMPLES:
            spart = partition_by_samples(ds.X, ds.y, m)
            return w, pcg_samples(Cluster(m), spart, obj, w, eps_k, cfg, record_history=True)
        fpart = partition_by_features(ds.X, ds.y, m)
        w_blocks = [w[o:o + s] for o, s in zip(fpart.offsets, fpart.sizes)]
        return w, pcg_features(Cluster(m), fpart, obj, w_blocks, eps_k, cfg, record_history=True)

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_residual_and_hv_recomputable(self, mode):
        ds, obj = make_dense_instance(d=12, n=30, seed=131, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.02, tau=10)
        w, step = self.run_with_history(ds, obj, cfg, 2, mode, eps_k=1e-10)
        oracle = DenseNewtonOracle(ds, obj)
        H = oracle.hessian(w)
        grad = oracle.gradient(w)
        for it in step.history:
            hv = H @ it.direction
            assert np.linalg.norm(it.residual - (grad - hv)) <= 5e-9 * max(1.0, np.linalg.norm(grad))
            assert np.linalg.norm(it.hessian_direction - hv) <= 5e-9 * max(1.0, np.linalg.norm(hv))

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_monotone_energy_norm(self, mode):
        ds, obj = make_dense_instance(d=14, n=35, seed=132, lam=0.15)
        cfg = ridge_config(lam=0.15, mu=0.01, tau=12)
        w, step = self.run_with_history(ds, obj, cfg, 2, mode, eps_k=1e-11)
        oracle = DenseNewtonOracle(ds, obj)
        H = oracle.hessian(w)
        v_star = oracle.newton_direction(w)
        energies = [float((it.direction - v_star) @ H @ (it.direction - v_star)) for it in step.history]
        for prev, cur in zip(energies, energies[1:]):
            assert cur <= prev * (1 + 1e-10) + 1e-15

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_finite_termination(self, mode):
        # a near-full subsample keeps the Krylov cliff well inside d steps,
        # so the deep tolerance is reached within d iterations despite float
        ds, obj = make_dense_instance(d=20, n=80, seed=133, lam=0.5)
        cfg = ridge_config(lam=0.5, mu=0.5, tau=40, max_inner=20)
        w, step = self.run_with_history(ds, obj, cfg, 2, mode, eps_k=1e-13)
        assert step.converged and step.inner_iters <= 20

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_inner_step_certificate(self, mode):
        # on return, ||H v - grad|| <= eps_k (plus float slack)
        ds, obj = make_dense_instance(d=15, n=40, seed=134, lam=0.2)
        cfg = ridge_config(lam=0.2, mu=0.02, tau=12)
        eps_k = 1e-6
        w, step = self.run_with_history(ds, obj, cfg, 3, mode, eps_k=eps_k)
        oracle = DenseNewtonOracle(ds, obj)
        resid = oracle.hessian(w) @ step.direction - oracle.gradient(w)
        assert np.linalg.norm(resid) <= eps_k + 1e-9

    @pytest.mark.parametrize("mode", [PartitionMode.SAMPLES, PartitionMode.FEATURES])
    def test_delta_certificate(self, mode):
        ds, obj = make_dense_instance(d=11, n=28, seed=135, lam=0.25)
        cfg = ridge_config(lam=0.25, mu=0.02, tau=9)
        w, step = self.run_with_history(ds, obj, cfg, 2, mode, eps_k=1e-8)
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
        res = disco_outer(Cluster(2), ds, cfg, record_iterates=True)
        g0 = res.trace[0].grad_norm
        g1 = res.trace[1].grad_norm
        delta0 = res.steps[0].delta
        assert g1 <= (delta0 / (1 + delta0)) * g0 + 1e-9 * g0

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_layout_equivalence(self, m):
        ds, _ = make_dense_instance(d=12, n=32, seed=143, lam=0.15)
        tau = min(8, 32 // m)
        runs = {}
        for mode in (PartitionMode.SAMPLES, PartitionMode.FEATURES):
            cfg = ridge_config(lam=0.15, mu=0.02, tau=tau, theta=1e-4, outer_tol=1e-9, mode=mode)
            runs[mode] = disco_outer(Cluster(m), ds, cfg, record_iterates=True)
        rs, rf = runs[PartitionMode.SAMPLES], runs[PartitionMode.FEATURES]
        assert rs.updates == rf.updates
        for ws, wf in zip(rs.iterates, rf.iterates):
            assert np.linalg.norm(ws - wf) <= 1e-8 * max(1.0, np.linalg.norm(ws))

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=-1.0).validate()
        with pytest.raises(ValueError):
            SolverConfig(lam=1.0, theta=0.0).validate()
        with pytest.raises(ValueError):
            SolverConfig(lam=1.0, tau=0).validate()
