"""Loss functions for l2-regularized empirical risk minimization.

The objective is

    f(w) = (1/n) * sum_i loss(w'x_i, y_i) + (lam/2) * ||w||^2

with two smooth losses: the square loss (y - w'x)^2 (no 1/2 factor, so its
curvature coefficient is the constant 2) and the logistic loss
log(1 + exp(-y * w'x)), whose functions reject labels outside {-1, +1}.
Per-sample derivatives are exposed as vectors of coefficients g_i and h_i
(``grad_coeffs``, ``hess_coeffs``, given the loss kind as a ``LossKind`` or
its string value) with

    grad loss_i = g_i * x_i        hess loss_i = h_i * x_i x_i'

which is all the solver ever needs: gradients and Hessian-vector products
reduce to matrix-vector products with the data block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .linalg import SparseBlock

__all__ = [
    "LossKind",
    "Objective",
    "grad_coeffs",
    "hess_coeffs",
    "objective_value",
    "full_gradient",
]


class Choice(str, Enum):
    """A string enum that is built from a member or its value; anything else
    raises a ValueError naming the allowed values."""

    @classmethod
    def _missing_(cls, value):
        allowed = ", ".join(repr(member.value) for member in cls)
        raise ValueError(f"{value!r} is not a valid {cls.__name__}; expected one of {allowed}")


class LossKind(Choice):
    SQUARE = "square"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class Objective:
    """Problem description: loss kind, l2 weight and data dimensions."""

    loss: LossKind
    lam: float
    n: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "loss", LossKind(self.loss))
        if not np.isfinite(self.lam):  # nan passes the sign check below
            raise ValueError(f"lam must be finite, got {self.lam}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")


def _check_margins(margins: np.ndarray, labels: np.ndarray):
    if margins.shape != labels.shape:  # numpy would broadcast a mismatch silently
        raise ValueError(f"margins have shape {margins.shape}, labels {labels.shape}")
    if not np.all(np.isfinite(margins)):
        raise ValueError("non-finite margin encountered")


def _check_sign_labels(labels: np.ndarray):
    if not np.all(np.abs(labels) == 1.0):
        bad = np.setdiff1d(labels, (-1.0, 1.0))
        raise ValueError(
            f"logistic loss needs labels in {{-1, +1}}; found {bad.size} other value(s): {bad[:5].tolist()}"
        )


def grad_coeffs(loss: LossKind, margins: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Vectorized per-sample gradient coefficients."""
    loss = LossKind(loss)
    margins = np.asarray(margins, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    _check_margins(margins, labels)
    if loss is LossKind.SQUARE:
        return 2.0 * (margins - labels)
    _check_sign_labels(labels)
    return -labels * expit(-labels * margins)


def hess_coeffs(loss: LossKind, margins: np.ndarray | None, labels: np.ndarray) -> np.ndarray:
    """Vectorized per-sample Hessian coefficients.

    Constant 2 for the square loss, so callers may pass arbitrary margins,
    or None, there (the result does not depend on the current iterate).
    """
    loss = LossKind(loss)
    labels = np.asarray(labels, dtype=np.float64)
    if loss is LossKind.SQUARE:
        return np.full(labels.shape[0], 2.0)
    _check_sign_labels(labels)
    if margins is None:
        raise ValueError("logistic Hessian coefficients need the margins of the current iterate")
    margins = np.asarray(margins, dtype=np.float64)
    _check_margins(margins, labels)
    z = labels * margins
    return expit(z) * expit(-z)


def _check_full_dims(obj: Objective, X: SparseBlock, y: np.ndarray, w: np.ndarray):
    if X.rows != obj.d or X.cols != obj.n:
        raise ValueError(f"data block is {X.rows}x{X.cols}, objective expects {obj.d}x{obj.n}")
    if y.shape[0] != obj.n:
        raise ValueError(f"labels have length {y.shape[0]}, expected {obj.n}")
    if w.shape[0] != obj.d:
        raise ValueError(f"iterate has length {w.shape[0]}, expected {obj.d}")


def objective_value(obj: Objective, X: SparseBlock, y: np.ndarray, w: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    _check_full_dims(obj, X, y, w)
    # The unpartitioned X is multiplied through its CSR matrix and CSC view,
    # not spmv/spmv_transpose, so that these one-off products leave no
    # transposed copy cached on X.
    margins = X.matrix.T @ w
    _check_margins(margins, y)
    if obj.loss is LossKind.SQUARE:
        resid = y - margins
        data_term = float(np.dot(resid, resid)) / obj.n
    else:
        _check_sign_labels(y)
        data_term = float(np.sum(np.logaddexp(0.0, -y * margins))) / obj.n
    return data_term + 0.5 * obj.lam * float(np.dot(w, w))


def full_gradient(obj: Objective, X: SparseBlock, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient (1/n) * X g + lam * w on unpartitioned data."""
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    _check_full_dims(obj, X, y, w)
    margins = X.matrix.T @ w
    coeffs = grad_coeffs(obj.loss, margins, y)
    return X.matrix @ coeffs / obj.n + obj.lam * w
