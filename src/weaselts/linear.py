"""Sparse multi-class logistic regression, one-vs-rest.

Each class gets a binary L2-regularized logistic problem

    min_w  0.5 * w'w + C * sum_i log(1 + exp(-y_i * w'x_i))

solved with a trust-region Newton method driven by Hessian-vector
products, so only sparse matrix-vector work is needed. The optimizer is
fully deterministic and stops when the gradient two-norm falls to the
tolerance, which makes the tolerance contract directly checkable at the
returned weights. A solve that stops short of it, at the iteration cap
or when the trust region can make no more progress, warns with the
solver's message and the gradient norm it reached. The bias enters as
an implicit constant feature and is regularized like every other
weight.

The classifier uses fixed values: C = 1, bias feature 1 and tolerance
0.1. Only the tolerance can be passed, so that tests can check the
stationarity contract at other values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, sparse
from scipy.special import expit

from .errors import InsufficientClassesError, ShapeError

C = 1.0
BIAS = 1.0
DEFAULT_TOLERANCE = 0.1


@dataclass(eq=False)
class LinearModel:
    """One weight row and one bias weight per class, in class order; the
    bias feature is the constant ``BIAS``."""

    classes: list
    weights: np.ndarray  # (k, d)
    bias_weights: np.ndarray  # (k,)


def loss_gradient(w: np.ndarray, xa, y: np.ndarray, c: float):
    """Regularized logistic loss and its gradient at stacked weights
    ``w`` (bias weight last); the function the solver minimizes."""
    margins = y * (xa @ w)
    loss = 0.5 * w @ w + c * np.logaddexp(0.0, -margins).sum()
    grad = w - c * (xa.T @ (y * expit(-margins)))
    return loss, grad


def _solve_binary(xa: sparse.csr_matrix, y: np.ndarray, c: float, tol: float) -> np.ndarray:
    def hessp(w, v):
        margins = y * (xa @ w)
        d = expit(margins) * expit(-margins)
        return v + c * (xa.T @ (d * (xa @ v)))

    res = optimize.minimize(
        lambda w: loss_gradient(w, xa, y, c),
        np.zeros(xa.shape[1]),
        jac=True,
        hessp=hessp,
        method="trust-ncg",
        options={"gtol": tol, "maxiter": 1000},
    )
    grad_norm = float(np.linalg.norm(res.jac))
    if grad_norm > tol:
        warnings.warn(
            f"logistic solve stopped with gradient norm {grad_norm:.3g} above the "
            f"tolerance {tol:g}: {res.message}",
            RuntimeWarning,
            stacklevel=3,
        )
    return res.x


def train_linear(vectors, labels, tolerance: float = DEFAULT_TOLERANCE) -> LinearModel:
    """Fit one-vs-rest logistic weights on sparse count vectors."""
    x = sparse.csr_matrix(vectors, dtype=np.float64)  # no copy of a float64 CSR
    labels = np.asarray([str(lab) for lab in labels])
    if x.shape[0] != labels.size:
        raise ShapeError("vectors and labels must be parallel")
    classes = [str(c) for c in np.unique(labels)]
    if len(classes) < 2:
        raise InsufficientClassesError("training needs >= 2 classes")

    ones = np.full((x.shape[0], 1), BIAS)
    xa = sparse.hstack([x, sparse.csr_matrix(ones)], format="csr")
    weights = np.empty((len(classes), x.shape[1]))
    bias_weights = np.empty(len(classes))
    # With two classes the second problem is the first with y negated; the
    # solver's iterates are then exactly negated, so one solve gives both.
    solved = classes[:1] if len(classes) == 2 else classes
    for i, cls in enumerate(solved):
        y = np.where(labels == cls, 1.0, -1.0)
        w = _solve_binary(xa, y, C, float(tolerance))
        weights[i] = w[:-1]
        bias_weights[i] = w[-1]
    if len(classes) == 2:
        weights[1] = -weights[0]
        bias_weights[1] = -bias_weights[0]
    return LinearModel(classes, weights, bias_weights)


def decision_scores(model: LinearModel, vectors) -> np.ndarray:
    """Per-class scores w'x + b * BIAS, shape (rows, k)."""
    x = sparse.csr_matrix(vectors, dtype=np.float64)  # no copy of a float64 CSR
    if x.shape[1] != model.weights.shape[1]:
        raise ShapeError(f"expected {model.weights.shape[1]} feature columns, got {x.shape[1]}")
    return x @ model.weights.T + BIAS * model.bias_weights
