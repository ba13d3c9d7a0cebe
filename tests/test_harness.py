import math
import re

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
    partition_by_samples,
)
from disco.harness import gen_synthetic, read_libsvm, write_libsvm

from conftest import make_dense_instance, newton_step, recorded_solve
from oracles import DenseNewtonOracle, ridge_closed_form


class TestReadLibsvm:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("1 1:0.5 3:-2\n")
        ds = read_libsvm(p)
        assert (ds.d, ds.n) == (3, 1)
        assert np.array_equal(ds.y, [1.0])
        col = ds.X.toarray()[:, 0]
        assert np.array_equal(col, [0.5, 0.0, -2.0])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "blank.txt"
        p.write_text("\n1 1:1\n\n   \n-1 2:1\n")
        ds = read_libsvm(p)
        assert (ds.d, ds.n) == (2, 2)
        assert np.array_equal(ds.y, [1.0, -1.0])

    def test_label_only_line_gives_zero_column(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("1 1:1\n-1\n")
        ds = read_libsvm(p)
        assert ds.n == 2
        assert np.array_equal(ds.y, [1.0, -1.0])
        assert np.array_equal(ds.X.toarray()[:, 1], [0.0])

    def test_round_trip_exact(self, tmp_path):
        ds, _ = make_dense_instance(d=6, n=9, seed=160)
        p = tmp_path / "c.txt"
        write_libsvm(p, ds)
        back = read_libsvm(p, dim=6)
        assert np.array_equal(back.X.toarray(), ds.X.toarray())
        assert np.array_equal(back.y, ds.y)

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:0.5\n1 junk\n")
        with pytest.raises(ValueError, match=":2"):
            read_libsvm(p)

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1 1:zzz\n")
        with pytest.raises(ValueError, match=":1"):
            read_libsvm(p)

    @pytest.mark.parametrize(
        "text, what",
        [("1 1:0.5\n1 2:nan\n", "feature entry '2:nan'"),
         ("1 1:0.5\n1 2:1e400\n", "feature entry '2:1e400'"),
         ("1 1:0.5\ninf 2:1\n", "label 'inf'")],
    )
    def test_non_finite_value_names_path_and_line(self, tmp_path, text, what):
        p = tmp_path / "nf.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"nf.txt:2: non-finite {what}"):
            read_libsvm(p)

    @pytest.mark.parametrize("text, message", [
        ("1 1:0.5\nabc 2:1\n", "bad.txt:2: bad label 'abc'"),
        ("1\n-1\n", "bad.txt: no features"),
    ], ids=["bad-label", "no-features"])
    def test_rejects_malformed_file(self, tmp_path, text, message):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_libsvm(p)

    def test_indices_must_increase(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("1 2:1.0 2:2.0\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            read_libsvm(p)

    def test_dim_override(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("1 2:1.0\n")
        assert read_libsvm(p).d == 2
        assert read_libsvm(p, dim=10).d == 10
        with pytest.raises(ValueError, match="dim"):
            read_libsvm(p, dim=1)
        assert read_libsvm(p, dim=np.int64(10)).d == 10

    @pytest.mark.parametrize("dim", [3.7, 3.0, True, "3"])
    def test_dim_must_be_an_integer(self, tmp_path, dim):
        # dim=3.7 once ran silently with d=3, and dim=True failed as "dim=1"
        p = tmp_path / "g.txt"
        p.write_text("1 2:1.0\n")
        with pytest.raises(ValueError, match=f"dim must be an integer, got {dim!r}"):
            read_libsvm(p, dim=dim)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("")
        with pytest.raises(ValueError, match="no samples"):
            read_libsvm(p)


def gen_synthetic_by_column(d, n, density, noise, seed):
    """Reference for gen_synthetic: the same draws, each column's rows sorted
    and its column index filled one column at a time."""
    rng = np.random.default_rng(seed)
    per_col = max(1, round(density * d))
    rows = np.empty(per_col * n, dtype=np.int64)
    cols = np.empty(per_col * n, dtype=np.int64)
    for j in range(n):
        rows[j * per_col:(j + 1) * per_col] = np.sort(rng.choice(d, size=per_col, replace=False))
        cols[j * per_col:(j + 1) * per_col] = j
    vals = rng.standard_normal(per_col * n)
    X = SparseBlock.from_coo(rows, cols, vals, shape=(d, n))
    w_star = rng.standard_normal(d) / np.sqrt(d)
    y = X.matrix.T @ w_star
    if noise > 0:
        y = y + noise * rng.standard_normal(n)
    return X, y


class TestGenSynthetic:
    @pytest.mark.parametrize("d, n, density, noise", [
        (10, 20, 0.3, 0.1),
        (50, 7, 0.01, 0.1),    # per_col = 1
        (1, 4, 1.0, 0.0),      # per_col = 1, density = 1
        (8, 12, 1.0, 0.2),     # density = 1
        (300, 40, 0.05, 0.0),
    ])
    def test_matches_per_column_reference_bitwise(self, d, n, density, noise):
        ds = gen_synthetic(d, n, density, noise, seed=d + n)
        X, y = gen_synthetic_by_column(d, n, density, noise, seed=d + n)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(ds.X.matrix, name), getattr(X.matrix, name))
        assert np.array_equal(ds.y, y)

    def test_same_seed_identical(self):
        a = gen_synthetic(10, 20, 0.3, 0.1, seed=5)
        b = gen_synthetic(10, 20, 0.3, 0.1, seed=5)
        assert np.array_equal(a.X.toarray(), b.X.toarray())
        assert np.array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        a = gen_synthetic(10, 20, 0.3, 0.1, seed=5)
        b = gen_synthetic(10, 20, 0.3, 0.1, seed=6)
        assert not np.array_equal(a.X.toarray(), b.X.toarray())

    def test_full_density_is_dense(self):
        ds = gen_synthetic(8, 12, 1.0, 0.0, seed=1)
        assert ds.X.nnz == 8 * 12

    def test_density_controls_nnz(self):
        ds = gen_synthetic(100, 10, 0.25, 0.0, seed=2)
        assert ds.X.nnz == 25 * 10

    @pytest.mark.parametrize("d, n, density, noise, message", [
        (4, 4, 0.0, 0.0, "density must be in"),
        (0, 4, 0.5, 0.0, "need d >= 1 and n >= 1, got d=0"),
        (4, 4, 0.5, -0.1, "noise must be non-negative"),
        # a NaN noise level once ran as no noise
        (4, 4, 0.5, math.nan, "noise must be non-negative and finite, got nan"),
        (4, 4, 0.5, math.inf, "noise must be non-negative and finite, got inf"),
    ], ids=["density", "d", "noise", "noise-nan", "noise-inf"])
    def test_invalid_arguments(self, d, n, density, noise, message):
        with pytest.raises(ValueError, match=message):
            gen_synthetic(d, n, density, noise, seed=0)

    @pytest.mark.parametrize("field, value", [
        # 4.5 once failed inside rng.choice, a seed of 1.5 inside numpy's SeedSequence
        ("d", 4.5), ("n", 4.5), ("seed", 1.5),
        ("d", True), ("n", True), ("seed", False),
        ("d", "4"), ("seed", None),
    ])
    def test_non_integer_sizes_and_seed_rejected(self, field, value):
        args = {"d": 4, "n": 4, "density": 0.5, "noise": 0.1, "seed": 1, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            gen_synthetic(**args)

    def test_noiseless_planted_solution_recovered(self):
        # with no noise and vanishing regularization the ridge solution is
        # the planted weight vector; the solver should find it
        ds = gen_synthetic(10, 80, 1.0, 0.0, seed=9)
        lam = 1e-9
        cfg = SolverConfig(lam=lam, mu=1e-6, tau=40, theta=1e-6, outer_tol=1e-8)
        res = disco_outer(Cluster(2), ds, cfg)
        assert res.converged
        w_ref = ridge_closed_form(ds, lam)
        assert np.linalg.norm(res.w - w_ref) <= 1e-6 * np.linalg.norm(w_ref)
        gnorm = np.linalg.norm(
            full_gradient(Objective(LossKind.SQUARE, lam, ds.n, ds.d), ds.X, ds.y, res.w)
        )
        assert gnorm <= 1e-8


class TestDenseNewtonOracle:
    def test_diagonal_hand_case(self):
        # identity data with lam = 1: H = 2I, so H v = [2, 0] gives [1, 0]
        X = SparseBlock.from_dense(np.eye(2))
        ds = Dataset(X=X, y=np.zeros(2), d=2, n=2, source="hand")
        obj = Objective(loss=LossKind.SQUARE, lam=1.0, n=2, d=2)
        oracle = DenseNewtonOracle(ds, obj)
        H = oracle.hessian(np.zeros(2))
        assert np.allclose(H, 2 * np.eye(2))
        v = np.linalg.solve(H, [2.0, 0.0])
        assert np.allclose(v, [1.0, 0.0])

    def test_normal_equation_residual(self):
        ds, _ = make_dense_instance(d=12, n=30, seed=161, lam=0.2)
        w = ridge_closed_form(ds, 0.2)
        Xd = ds.X.toarray()
        A = (2.0 / 30) * (Xd @ Xd.T) + 0.2 * np.eye(12)
        b = (2.0 / 30) * (Xd @ ds.y)
        assert np.linalg.norm(A @ w - b) <= 1e-12 * np.linalg.norm(b)

    def test_matches_pcg_at_tight_tolerance(self):
        ds, obj = make_dense_instance(d=10, n=40, seed=162, lam=0.3)
        cfg = SolverConfig(lam=0.3, mu=0.01, tau=20)
        spart = partition_by_samples(ds.X, ds.y, 2)
        rng = np.random.default_rng(163)
        w = rng.standard_normal(10)
        step = newton_step(Cluster(2), spart, w, 1e-13, cfg)
        expected = DenseNewtonOracle(ds, obj).newton_direction(w)
        assert np.linalg.norm(step.direction - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_dimension_guard(self):
        rng = np.random.default_rng(164)
        X = SparseBlock.from_dense(rng.standard_normal((501, 2)))
        ds = Dataset(X=X, y=np.zeros(2), d=501, n=2, source="big")
        with pytest.raises(ValueError, match="500"):
            ridge_closed_form(ds, 0.1)
        with pytest.raises(ValueError, match="500"):
            DenseNewtonOracle(ds, Objective(LossKind.SQUARE, 0.1, 2, 501))

    def test_objective_must_match_dataset(self):
        ds, _ = make_dense_instance(d=3, n=4, seed=166)
        with pytest.raises(ValueError, match="dataset and objective dimensions disagree"):
            DenseNewtonOracle(ds, Objective(LossKind.SQUARE, 0.1, 5, 3))


class TestTraceAccounting:
    """Every trace row's cumulative counters must equal the analytic
    prediction from the per-round payload formulas, exactly."""

    def test_samples_mode_rows(self):
        ds, _ = make_dense_instance(d=14, n=42, seed=180, lam=0.2)
        cfg = SolverConfig(lam=0.2, mu=0.2, tau=14, theta=1e-4, outer_tol=1e-9)
        res = disco_outer(Cluster(3), ds, cfg)
        assert res.converged
        d = ds.d
        for k, row in enumerate(res.trace):
            # row k: k+1 gradient exchanges and inner_iters_cum Hu exchanges,
            # each one broadcast + one reduce_all of 8d bytes
            exchanges = row.inner_iters_cum + (k + 1)
            assert row.rounds_cum == 2 * exchanges
            assert row.bytes_cum == 16 * d * exchanges

    def test_features_mode_rows(self):
        ds, _ = make_dense_instance(d=14, n=42, seed=181, lam=0.2)
        cfg = SolverConfig(
            lam=0.2, mu=0.2, tau=14, theta=1e-4, outer_tol=1e-9,
            partition_mode=PartitionMode.FEATURES,
        )
        res, steps, _ = recorded_solve(Cluster(3), ds, cfg)
        assert res.converged
        d, n = ds.d, ds.n
        assert any(step.inner_iters == 0 for step in steps)  # a continued step that needed no iteration
        for k, row in enumerate(res.trace):
            T_cum = row.inner_iters_cum
            ran = [step for step in steps[:k] if step.inner_iters > 0]
            # vector rounds: margins (k+1) + Hu products; scalar rounds: 2 per
            # inner iteration; concatenating reduce: one per update whose step
            # ran an inner iteration (a step that ran none sends nothing)
            assert row.rounds_cum == 3 * T_cum + (k + 1) + len(ran)
            scalar_bytes = sum(8 + 32 * step.inner_iters for step in ran)
            assert row.bytes_cum == 8 * n * (T_cum + k + 1) + scalar_bytes + 8 * d * len(ran)


def test_dataset_validation():
    X = SparseBlock.from_dense(np.eye(3))
    with pytest.raises(ValueError):
        Dataset(X=X, y=np.zeros(2), d=3, n=3, source="bad labels")
    with pytest.raises(ValueError):
        Dataset(X=X, y=np.zeros(3), d=4, n=3, source="bad dims")
