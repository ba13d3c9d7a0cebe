"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import numpy as np
import pytest

from disco import (
    Cluster,
    LossKind,
    Objective,
    PartitionMode,
    SolverConfig,
    disco_outer,
    full_gradient,
    hess_vec_dense,
    objective_value,
    partition_by_features,
    partition_by_samples,
    pcg_features,
    pcg_samples,
)
from disco.harness import DenseNewtonOracle, gen_synthetic, ridge_closed_form
from disco.harness.cli import main as cli_main
from disco.harness.trace import TRACE_HEADER

from conftest import make_dense_instance, recorded_solve


def report(num, text):
    print(f"\nACCEPTANCE CRITERION {num}: PASS -- {text}")


# ---------------------------------------------------------------------------
# Shared ridge instance suite (criteria 1, 2 and 8)
# ---------------------------------------------------------------------------

N_INSTANCES = 21


def _instances():
    """21 frozen random ridge instances with d <= 50, n <= 200, m in {1,2,4}.

    tau is the master shard size so both layouts build their preconditioner
    from the same subsample; mu = lam keeps the subsampled curvature estimate
    well conditioned.
    """
    meta = np.random.default_rng(77)
    out = []
    for trial in range(N_INSTANCES):
        m = (1, 2, 4)[trial % 3]
        d = int(meta.integers(4, 51))
        n = int(min(200, max(3 * d, 4 * m, meta.integers(2 * d, 4 * d + 1))))
        lam = float(10 ** meta.uniform(-1, 0))
        ds, _ = make_dense_instance(d=d, n=n, seed=int(meta.integers(1_000_000)), lam=lam)
        out.append((ds, lam, m, n // m))
    return out


@pytest.fixture(scope="module")
def ridge_suite():
    return _instances()


@pytest.fixture(scope="module")
def outer_runs(ridge_suite):
    """Both-mode recorded solves (result, steps, iterates) with theta = 1e-4
    on every suite instance."""
    runs = []
    for ds, lam, m, tau in ridge_suite:
        per_mode = {}
        for mode in (PartitionMode.SAMPLES, PartitionMode.FEATURES):
            cfg = SolverConfig(
                lam=lam, mu=lam, tau=tau, theta=1e-4, outer_tol=1e-8,
                partition_mode=mode,
            )
            per_mode[mode] = recorded_solve(Cluster(m), ds, cfg)
        runs.append((ds, lam, m, per_mode))
    return runs


def test_criterion_1_inner_solver_oracle_equivalence(ridge_suite):
    checked = 0
    for ds, lam, m, tau in ridge_suite:
        obj = Objective(loss=LossKind.SQUARE, lam=lam, n=ds.n, d=ds.d)
        cfg = SolverConfig(lam=lam, mu=lam, tau=tau, theta=1e-4)
        rng = np.random.default_rng(1000 + checked)
        w = rng.standard_normal(ds.d)
        expected = DenseNewtonOracle(ds, obj).newton_direction(w)
        scale = np.linalg.norm(expected)

        spart = partition_by_samples(ds.X, ds.y, m)
        step_s = pcg_samples(Cluster(m), spart, w, eps_k=1e-12, config=cfg)
        assert step_s.converged
        assert np.linalg.norm(step_s.direction - expected) <= 1e-8 * scale

        fpart = partition_by_features(ds.X, ds.y, m)
        w_blocks = [w[o:o + s] for o, s in zip(fpart.offsets, fpart.sizes)]
        step_f = pcg_features(Cluster(m), fpart, w_blocks, eps_k=1e-12, config=cfg)
        assert step_f.converged
        assert np.linalg.norm(step_f.direction - expected) <= 1e-8 * scale
        checked += 1
    assert checked >= 20
    report(1, f"both PCG layouts match the dense Newton direction on {checked} instances (1e-8 rel)")


def test_criterion_2_outer_layout_equivalence(outer_runs):
    worst = 0.0
    for ds, lam, m, per_mode in outer_runs:
        rs, _, iterates_s = per_mode[PartitionMode.SAMPLES]
        rf, _, iterates_f = per_mode[PartitionMode.FEATURES]
        assert rs.converged and rf.converged
        assert rs.updates == rf.updates
        for ws, wf in zip(iterates_s, iterates_f):
            rel = np.linalg.norm(ws - wf) / max(1.0, np.linalg.norm(ws))
            worst = max(worst, rel)
            assert rel <= 1e-8
        assert abs(rs.trace[-1].grad_norm - rf.trace[-1].grad_norm) <= 1e-8
    report(2, f"outer-iterate sequences agree across layouts on {len(outer_runs)} instances "
              f"(worst relative gap {worst:.2e})")


def test_criterion_3_closed_form_convergence():
    ds = gen_synthetic(12, 30, density=0.9, noise=0.05, seed=7)
    cfg = SolverConfig(lam=0.1, mu=0.1, theta=1e-6, outer_tol=1e-10)
    res = disco_outer(Cluster(2), ds, cfg)
    assert res.converged
    assert res.updates <= 10
    assert res.trace[-1].grad_norm <= 1e-10
    w_ref = ridge_closed_form(ds, 0.1)
    rel = np.linalg.norm(res.w - w_ref) / np.linalg.norm(w_ref)
    assert rel <= 1e-6
    report(3, f"reached grad norm {res.trace[-1].grad_norm:.2e} in {res.updates} outer iterations; "
              f"minimizer gap {rel:.2e}")


def test_criterion_4_communication_accounting_exact():
    ds, _ = make_dense_instance(d=40, n=120, seed=900, lam=0.15)
    d, n, m = 40, 120, 3
    tau = 40
    counts = {}
    for mode in (PartitionMode.SAMPLES, PartitionMode.FEATURES):
        cfg = SolverConfig(lam=0.15, mu=0.15, tau=tau, theta=1e-4, outer_tol=1e-9,
                           partition_mode=mode)
        cl = Cluster(m)
        res, steps, _ = recorded_solve(cl, ds, cfg)
        assert res.converged and res.updates >= 2
        counts[mode] = (res, steps, cl.snapshot_stats())

    # sample layout: per inner iteration 1 broadcast + 1 reduce_all of 8d
    # bytes; per gradient evaluation the same pair once more
    res, _, stats = counts[PartitionMode.SAMPLES]
    T, GE = res.inner_iters_total, res.grad_evals
    assert stats.broadcast_rounds == T + GE
    assert stats.reduceall_rounds == T + GE
    assert stats.broadcast_bytes == 8 * d * (T + GE)
    assert stats.reduceall_bytes == 8 * d * (T + GE)
    assert stats.reduce_rounds == 0 and stats.reduce_bytes == 0

    # feature layout: per inner iteration one length-n reduce_all and two
    # scalar reduce_alls; one length-n margin round per gradient evaluation;
    # one concatenating reduce per update. Scalar bytes: the curvature round
    # carries 2 values at t=0 and 1 afterwards, the beta round always 3.
    res, steps, stats = counts[PartitionMode.FEATURES]
    T, GE, U = res.inner_iters_total, res.grad_evals, res.updates
    assert stats.broadcast_rounds == 0 and stats.broadcast_bytes == 0
    assert stats.reduceall_rounds == 3 * T + GE
    assert stats.reduce_rounds == U
    assert stats.reduce_bytes == 8 * d * U
    scalar_bytes = sum(16 + 8 * (step.inner_iters - 1) + 24 * step.inner_iters for step in steps)
    assert stats.reduceall_bytes == 8 * n * (T + GE) + scalar_bytes
    report(4, f"round and byte counters match the analytic formulas exactly "
              f"(samples: {counts[PartitionMode.SAMPLES][2].total_rounds} rounds, "
              f"features: {stats.total_rounds} rounds)")


def test_criterion_5_feature_layout_halves_communication():
    ds = gen_synthetic(4000, 500, density=0.02, noise=0.1, seed=42)
    results = {}
    for mode in (PartitionMode.SAMPLES, PartitionMode.FEATURES):
        cfg = SolverConfig(lam=1e-2, mu=1e-2, tau=125, theta=1e-4, outer_tol=1e-7,
                           partition_mode=mode)
        cl = Cluster(4)
        res = disco_outer(cl, ds, cfg)
        assert res.converged
        results[mode] = (res, cl.snapshot_stats())
    res_s, stats_s = results[PartitionMode.SAMPLES]
    res_f, stats_f = results[PartitionMode.FEATURES]

    # (a) inner-iteration counts within 20% of each other
    T_s, T_f = res_s.inner_iters_total, res_f.inner_iters_total
    assert abs(T_s - T_f) <= 0.2 * max(T_s, T_f)

    # (b) per-inner-iteration bytes: the feature layout moves O(n) per
    # iteration instead of O(d); with d = 8n the ratio sits near the
    # analytic (8n + 24) / (16d), far under the 0.25 bound
    per_s = stats_s.total_bytes / T_s
    per_f = stats_f.total_bytes / T_f
    ratio = per_f / per_s
    analytic = (8 * 500 + 24) / (16 * 4000)
    assert ratio <= 0.25
    assert ratio == pytest.approx(analytic, rel=0.35)
    report(5, f"inner iterations {T_s} vs {T_f}; per-iteration byte ratio {ratio:.4f} "
              f"(analytic ~{analytic:.4f}, bound 0.25)")


def test_criterion_6_derivative_checks():
    checked = 0
    for seed in range(10):
        for loss, labels in ((LossKind.SQUARE, "regression"), (LossKind.LOGISTIC, "sign")):
            d = 4 + (seed % 5)
            ds, obj = make_dense_instance(d=d, n=3 * d, seed=2000 + seed, lam=0.2,
                                          loss=loss, labels=labels)
            rng = np.random.default_rng(3000 + seed)
            w = 0.5 * rng.standard_normal(d)
            u = rng.standard_normal(d)

            g = full_gradient(obj, ds.X, ds.y, w)
            step = 1e-5
            fd_g = np.zeros(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = step
                fd_g[j] = (
                    objective_value(obj, ds.X, ds.y, w + e)
                    - objective_value(obj, ds.X, ds.y, w - e)
                ) / (2 * step)
            assert np.linalg.norm(fd_g - g) <= 1e-5 * max(1.0, np.linalg.norm(g))

            hu = hess_vec_dense(obj, ds.X, ds.y, w, u)
            step = 1e-6
            fd_h = (
                full_gradient(obj, ds.X, ds.y, w + step * u)
                - full_gradient(obj, ds.X, ds.y, w - step * u)
            ) / (2 * step)
            assert np.linalg.norm(fd_h - hu) <= 1e-4 * max(1.0, np.linalg.norm(hu))
            checked += 1
    assert checked == 20
    report(6, f"gradient (1e-5) and Hessian-vector (1e-4) finite-difference checks "
              f"passed on {checked} instances")


def _read_trace(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER
    return lines[1:]


def _drop_wall(lines):
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_criterion_7_determinism(tmp_path):
    base = ["--synthetic", "30,90,0.3,0.05,11", "--nodes", "3", "--partition", "features",
            "--tau", "25", "--lambda", "0.1", "--mu", "0.1", "--tol", "1e-9"]
    t1, t2 = (tmp_path / f"run{i}.csv" for i in range(2))
    assert cli_main(base + ["--trace", str(t1)]) == 0
    assert cli_main(base + ["--trace", str(t2)]) == 0
    assert _drop_wall(_read_trace(t1)) == _drop_wall(_read_trace(t2))
    report(7, "reruns byte-identical (excluding wall_ms)")


def test_criterion_8_delta_certificate(outer_runs):
    ds3 = gen_synthetic(12, 30, density=0.9, noise=0.05, seed=7)
    cfg3 = SolverConfig(lam=0.1, mu=0.1, theta=1e-6, outer_tol=1e-10)
    _, steps3, _ = recorded_solve(Cluster(2), ds3, cfg3)

    checked = 0
    cases = [(ds, lam, steps) for ds, lam, m, per_mode in outer_runs for _, steps, _ in per_mode.values()]
    cases.append((ds3, 0.1, steps3))
    for ds, lam, steps in cases:
        obj = Objective(loss=LossKind.SQUARE, lam=lam, n=ds.n, d=ds.d)
        H = DenseNewtonOracle(ds, obj).hessian(np.zeros(ds.d))  # constant for square loss
        for step in steps:
            expected = float(step.direction @ H @ step.direction)
            assert step.delta**2 == pytest.approx(expected, rel=1e-8)
            checked += 1
    report(8, f"delta^2 equals the recomputed v'Hv on {checked} outer steps (1e-8 rel)")
