"""Dense brute-force oracles for the test suite.

These deliberately assemble full matrices and call dense solvers, staying
independent of the sparse/distributed code paths they are used to check.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from disco import Dataset, LossKind, Objective, SparseBlock
from disco.losses import _check_full_dims, grad_coeffs, hess_coeffs

_MAX_DENSE_DIM = 500


def ridge_closed_form(dataset: Dataset, lam: float) -> np.ndarray:
    """Exact minimizer of (1/n)||y - X'w||^2 + (lam/2)||w||^2 via the normal
    equations (2/n XX' + lam I) w = 2/n X y."""
    if dataset.d > _MAX_DENSE_DIM:
        raise ValueError(f"dense oracle limited to d <= {_MAX_DENSE_DIM}, got {dataset.d}")
    Xd = dataset.X.toarray()
    n = dataset.n
    A = (2.0 / n) * (Xd @ Xd.T) + lam * np.eye(dataset.d)
    b = (2.0 / n) * (Xd @ dataset.y)
    return cho_solve(cho_factor(A, lower=True), b)


class DenseNewtonOracle:
    """Exact Newton directions from densely assembled gradients and Hessians."""

    def __init__(self, dataset: Dataset, obj: Objective):
        if dataset.d > _MAX_DENSE_DIM:
            raise ValueError(f"dense oracle limited to d <= {_MAX_DENSE_DIM}, got {dataset.d}")
        if dataset.d != obj.d or dataset.n != obj.n:
            raise ValueError("dataset and objective dimensions disagree")
        self.dataset = dataset
        self.obj = obj
        self._Xd = dataset.X.toarray()

    def gradient(self, w: np.ndarray) -> np.ndarray:
        margins = self._Xd.T @ w
        g = grad_coeffs(self.obj.loss, margins, self.dataset.y)
        return self._Xd @ g / self.obj.n + self.obj.lam * w

    def hessian(self, w: np.ndarray) -> np.ndarray:
        margins = self._Xd.T @ w
        h = hess_coeffs(self.obj.loss, margins, self.dataset.y)
        H = (self._Xd * h) @ self._Xd.T / self.obj.n
        H[np.diag_indices_from(H)] += self.obj.lam
        return H

    def newton_direction(self, w: np.ndarray) -> np.ndarray:
        """Exact solution of H(w) v = grad(w) by dense SPD factorization."""
        H = self.hessian(w)
        return cho_solve(cho_factor(H, lower=True), self.gradient(w))


def hess_vec_dense(obj: Objective, X: SparseBlock, y: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Hessian-vector product (1/n) * X (h * X'u) + lam * u on unpartitioned data.

    For the square loss the coefficients are constant, so the result never
    touches ``w`` and is bitwise independent of it.
    """
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    _check_full_dims(obj, X, y, w)
    if u.shape[0] != obj.d:
        raise ValueError(f"direction has length {u.shape[0]}, expected {obj.d}")
    if obj.loss is LossKind.SQUARE:
        h = np.full(obj.n, 2.0)
    else:
        h = hess_coeffs(obj.loss, X.matrix.T @ w, y)
    z = X.matrix.T @ u
    return X.matrix @ (h * z) / obj.n + obj.lam * u
