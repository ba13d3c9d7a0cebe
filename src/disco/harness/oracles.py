"""Dense brute-force oracles used by the test suite.

These deliberately assemble full matrices and call dense solvers, staying
independent of the sparse/distributed code paths they are used to check.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..losses import LossKind, Objective, grad_coeffs, hess_coeffs
from .datasets import Dataset

__all__ = ["ridge_closed_form", "DenseNewtonOracle"]

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
    """Exact Newton directions (and, for the square loss, the minimizer)
    from densely assembled gradients and Hessians."""

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

    def minimizer(self) -> np.ndarray:
        """Global minimizer; defined for the (quadratic) square loss only."""
        if self.obj.loss is not LossKind.SQUARE:
            raise ValueError("closed-form minimizer exists only for the square loss")
        return ridge_closed_form(self.dataset, self.obj.lam)
