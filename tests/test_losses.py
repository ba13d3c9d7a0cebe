import math

import numpy as np
import pytest

from disco import LossKind, Objective, SparseBlock, full_gradient, objective_value
from disco.losses import grad_coeffs, hess_coeffs

from conftest import make_dense_instance
from oracles import hess_vec_dense, ridge_closed_form


def sq_obj(n=1, d=1, lam=0.5):
    return Objective(loss=LossKind.SQUARE, lam=lam, n=n, d=d)


def lo_obj(n=1, d=1, lam=0.5):
    return Objective(loss=LossKind.LOGISTIC, lam=lam, n=n, d=d)


def sample_loss(obj, margin, label):
    """The loss of the one sample x = [1] at w = [margin]: the objective
    value minus the regulariser."""
    w = np.array([margin])
    return objective_value(obj, SparseBlock.from_dense([[1.0]]), np.array([label]), w) - 0.5 * obj.lam * margin**2


def grad_coeff(obj, margin, label):
    return grad_coeffs(obj.loss, np.array([margin]), np.array([label]))[0]


def hess_coeff(obj, margin, label):
    return hess_coeffs(obj.loss, np.array([margin]), np.array([label]))[0]


class TestScalarOps:
    def test_square_perfect_fit(self):
        assert sample_loss(sq_obj(), margin=1.0, label=1.0) == 0.0

    def test_square_value(self):
        assert sample_loss(sq_obj(), margin=0.0, label=2.0) == 4.0

    def test_logistic_at_zero(self):
        assert sample_loss(lo_obj(), margin=0.0, label=1.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_square_grad(self):
        assert grad_coeff(sq_obj(), margin=0.0, label=1.0) == -2.0

    def test_square_grad_stationary(self):
        assert grad_coeff(sq_obj(), margin=0.7, label=0.7) == 0.0

    def test_logistic_grad_at_zero(self):
        assert grad_coeff(lo_obj(), margin=0.0, label=1.0) == -0.5

    def test_square_hess_constant(self):
        for margin in (-3.0, 0.0, 17.5):
            assert hess_coeff(sq_obj(), margin, label=1.0) == 2.0

    def test_logistic_hess_at_zero(self):
        assert hess_coeff(lo_obj(), margin=0.0, label=1.0) == 0.25

    def test_logistic_hess_saturates(self):
        assert hess_coeff(lo_obj(), margin=50.0, label=1.0) < 1e-20
        assert hess_coeff(lo_obj(), margin=-50.0, label=1.0) < 1e-20

    def test_logistic_value_overflow_safe(self):
        big = sample_loss(lo_obj(), margin=-2000.0, label=1.0)
        assert big == pytest.approx(2000.0)
        assert sample_loss(lo_obj(), margin=2000.0, label=1.0) == 0.0

    @pytest.mark.parametrize("fn,obj", [
        (sample_loss, sq_obj()), (sample_loss, lo_obj()), (grad_coeff, sq_obj()), (grad_coeff, lo_obj()),
        (hess_coeff, lo_obj()),  # the square curvature never reads the margins
    ], ids=["value-square", "value-logistic", "grad-square", "grad-logistic", "hess-logistic"])
    def test_non_finite_margin_rejected(self, fn, obj):
        with pytest.raises(ValueError, match="non-finite"):
            fn(obj, float("nan"), 1.0)

    @pytest.mark.parametrize("fn,loss", [
        (grad_coeffs, LossKind.SQUARE), (grad_coeffs, LossKind.LOGISTIC), (hess_coeffs, LossKind.LOGISTIC),
    ])
    @pytest.mark.parametrize("shape", [(1,), (4,), (6,), (1, 5), (5, 1)])
    def test_margins_of_the_wrong_shape_rejected(self, fn, loss, shape):
        # numpy would broadcast these against the 5 labels without a word
        with pytest.raises(ValueError, match=r"margins have shape .* labels \(5,\)"):
            fn(loss, np.full(shape, 0.3), np.ones(5))

    def test_square_hess_ignores_the_margins(self):
        for margins in (None, np.array([0.3]), np.zeros((1, 5))):
            assert np.array_equal(hess_coeffs(LossKind.SQUARE, margins, np.ones(5)), np.full(5, 2.0))

    def test_logistic_hess_needs_margins(self):
        with pytest.raises(ValueError, match="need the margins"):
            hess_coeffs(LossKind.LOGISTIC, None, np.array([1.0]))


class TestObjectiveType:
    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            Objective(loss=LossKind.SQUARE, lam=0.0, n=1, d=1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            Objective(loss=LossKind.SQUARE, lam=lam, n=1, d=1)

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            Objective(loss=LossKind.SQUARE, lam=1.0, n=0, d=1)


class TestFullGradient:
    def test_single_sample_hand_case(self):
        # one sample x = e1, label 1, w = 0: the regularizer drops out
        X = SparseBlock.from_dense([[1.0], [0.0]])
        obj = sq_obj(n=1, d=2, lam=0.5)
        g = full_gradient(obj, X, np.array([1.0]), np.zeros(2))
        assert np.array_equal(g, [-2.0, 0.0])

    def test_zero_at_closed_form_solution(self):
        ds, obj = make_dense_instance(d=5, n=8, seed=11, lam=0.3)
        w = ridge_closed_form(ds, obj.lam)
        g = full_gradient(obj, ds.X, ds.y, w)
        assert np.linalg.norm(g) < 1e-10

    def test_regularizer_only_when_fit_is_perfect(self):
        # labels equal margins -> loss coefficients are exactly zero
        rng = np.random.default_rng(3)
        Xd = rng.standard_normal((4, 6))
        w = rng.standard_normal(4)
        X = SparseBlock.from_dense(Xd)
        y = X.matrix.T @ w
        obj = sq_obj(n=6, d=4, lam=0.7)
        g = full_gradient(obj, X, y, w)
        assert np.array_equal(g, obj.lam * w)

    @pytest.mark.parametrize("x_shape, y_len, w_len, message", [
        ((3, 3), 2, 3, "labels have length 2, expected 3"),
        ((3, 2), 3, 3, "data block is 3x2, objective expects 3x3"),
        ((3, 3), 3, 2, "iterate has length 2, expected 3"),
    ], ids=["labels", "data", "iterate"])
    def test_dimension_mismatch(self, x_shape, y_len, w_len, message):
        X = SparseBlock.from_dense(np.ones(x_shape))
        obj = sq_obj(n=3, d=3, lam=1.0)
        y, w = np.ones(y_len), np.zeros(w_len)
        for call in (objective_value, full_gradient, lambda *args: hess_vec_dense(*args, np.zeros(3))):
            with pytest.raises(ValueError, match=message):
                call(obj, X, y, w)

    def test_direction_length_mismatch(self):
        X = SparseBlock.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="direction has length 2, expected 3"):
            hess_vec_dense(sq_obj(n=3, d=3, lam=1.0), X, np.ones(3), np.zeros(3), np.zeros(2))


def test_unpartitioned_products_cache_no_transposed_copy():
    """objective_value, full_gradient and hess_vec_dense leave a tall X (d > n)
    without the transposed copy that spmv_transpose would build and keep."""
    ds, _ = make_dense_instance(d=9, n=4, seed=5)
    rng = np.random.default_rng(6)
    w, u = rng.standard_normal(9), rng.standard_normal(9)
    for loss in LossKind:
        obj = Objective(loss=loss, lam=0.1, n=4, d=9)
        y = ds.y if loss is LossKind.SQUARE else np.where(ds.y > 0, 1.0, -1.0)
        objective_value(obj, ds.X, y, w)
        full_gradient(obj, ds.X, y, w)
        hess_vec_dense(obj, ds.X, y, w, u)
    assert "matrix_t" not in vars(ds.X)


@pytest.mark.parametrize("loss", list(LossKind))
def test_string_loss_kinds_act_as_their_members(loss):
    rng = np.random.default_rng(7)
    margins, labels = rng.standard_normal(6), np.array([1.0, -1.0] * 3)
    for coeffs in (grad_coeffs, hess_coeffs):
        assert np.array_equal(coeffs(loss.value, margins, labels), coeffs(loss, margins, labels))
    assert Objective(loss=loss.value, lam=0.1, n=1, d=1).loss is loss


@pytest.mark.parametrize("call", [
    lambda kind: grad_coeffs(kind, np.zeros(2), np.ones(2)),
    lambda kind: hess_coeffs(kind, np.zeros(2), np.ones(2)),
    lambda kind: Objective(loss=kind, lam=0.1, n=1, d=1),
])
@pytest.mark.parametrize("kind", ["logit", "Square", None])
def test_unknown_loss_kinds_name_the_allowed_values(call, kind):
    with pytest.raises(ValueError, match="expected one of 'square', 'logistic'"):
        call(kind)


class TestHessVec:
    def test_identity_data_gives_2u(self):
        # two unit samples, lam = 1: H = (2/2) I + I = 2I
        X = SparseBlock.from_dense(np.eye(2))
        obj = sq_obj(n=2, d=2, lam=1.0)
        u = np.array([0.3, -1.2])
        assert np.allclose(hess_vec_dense(obj, X, np.ones(2), np.zeros(2), u), 2.0 * u, atol=1e-15)

    @pytest.mark.parametrize("loss,labels", [(LossKind.SQUARE, "regression"), (LossKind.LOGISTIC, "sign")])
    def test_matches_dense_hessian_assembly(self, loss, labels):
        ds, obj = make_dense_instance(d=6, n=10, seed=21, lam=0.2, loss=loss, labels=labels)
        rng = np.random.default_rng(22)
        w = rng.standard_normal(6)
        u = rng.standard_normal(6)
        # brute-force oracle: assemble H explicitly from per-sample outer products
        Xd = ds.X.toarray()
        margins = Xd.T @ w
        H = np.zeros((6, 6))
        for i in range(10):
            if loss is LossKind.SQUARE:
                h_i = 2.0
            else:  # sigma(z) * sigma(-z) at z = y_i * margin_i
                z = ds.y[i] * margins[i]
                h_i = 1.0 / ((1.0 + math.exp(-z)) * (1.0 + math.exp(z)))
            H += h_i * np.outer(Xd[:, i], Xd[:, i])
        H = H / obj.n + obj.lam * np.eye(6)
        expected = H @ u
        got = hess_vec_dense(obj, ds.X, ds.y, w, u)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_zero_direction(self):
        ds, obj = make_dense_instance(d=4, n=7, seed=31)
        assert np.array_equal(hess_vec_dense(obj, ds.X, ds.y, np.ones(4), np.zeros(4)), np.zeros(4))

    def test_square_loss_invariant_to_w_bitwise(self):
        ds, obj = make_dense_instance(d=5, n=9, seed=41)
        rng = np.random.default_rng(42)
        u = rng.standard_normal(5)
        a = hess_vec_dense(obj, ds.X, ds.y, rng.standard_normal(5), u)
        b = hess_vec_dense(obj, ds.X, ds.y, rng.standard_normal(5) * 100, u)
        assert np.array_equal(a, b)

    def test_strong_convexity_lower_bound(self):
        ds, obj = make_dense_instance(d=6, n=12, seed=51, lam=0.4, loss=LossKind.LOGISTIC, labels="sign")
        rng = np.random.default_rng(52)
        for _ in range(10):
            u = rng.standard_normal(6)
            w = rng.standard_normal(6)
            quad = float(u @ hess_vec_dense(obj, ds.X, ds.y, w, u))
            assert quad >= obj.lam * float(u @ u) - 1e-12


class TestFiniteDifferences:
    @pytest.mark.parametrize("loss,labels", [(LossKind.SQUARE, "regression"), (LossKind.LOGISTIC, "sign")])
    def test_gradient_matches_central_differences(self, loss, labels):
        for seed in range(5):
            ds, obj = make_dense_instance(d=5, n=12, seed=100 + seed, lam=0.2, loss=loss, labels=labels)
            rng = np.random.default_rng(200 + seed)
            w = 0.5 * rng.standard_normal(5)
            g = full_gradient(obj, ds.X, ds.y, w)
            step = 1e-5
            fd = np.zeros(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = step
                fd[j] = (
                    objective_value(obj, ds.X, ds.y, w + e)
                    - objective_value(obj, ds.X, ds.y, w - e)
                ) / (2 * step)
            assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))

    @pytest.mark.parametrize("loss,labels", [(LossKind.SQUARE, "regression"), (LossKind.LOGISTIC, "sign")])
    def test_hessian_vec_matches_gradient_differences(self, loss, labels):
        for seed in range(5):
            ds, obj = make_dense_instance(d=5, n=12, seed=300 + seed, lam=0.2, loss=loss, labels=labels)
            rng = np.random.default_rng(400 + seed)
            w = 0.5 * rng.standard_normal(5)
            u = rng.standard_normal(5)
            hu = hess_vec_dense(obj, ds.X, ds.y, w, u)
            step = 1e-6
            fd = (
                full_gradient(obj, ds.X, ds.y, w + step * u)
                - full_gradient(obj, ds.X, ds.y, w - step * u)
            ) / (2 * step)
            assert np.linalg.norm(fd - hu) <= 1e-4 * max(1.0, np.linalg.norm(hu))
