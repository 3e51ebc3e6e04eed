"""Binary logistic regression trained by full-batch gradient descent.

Loss is the mean negative log-likelihood plus an L2 penalty on the weights
(bias unpenalized). Weights start at zero, so a zero-iteration fit predicts
0.5 everywhere.

The per-row terms of each iteration (logit, residual, loss) are evaluated
once per distinct (encoded row, label) pair and gathered back to the rows;
the gradient's ``x.T @ residual`` and the means still run over all rows in
row order, so the fitted model is bit-identical to evaluating every row.
The encoder's columns are finite (a standardized one within ±√n) and every
residual lies in [-1, 1], so each step, the weights and the loss stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SingleClassTrainingError
from .encoding import FeatureMatrix, require_width


LEARNING_RATE = 0.1
MAX_ITERATIONS = 500
L2 = 1e-4           # penalty on the weights
TOLERANCE = 1e-8    # the fit stops once the loss changes by less


@dataclass(frozen=True)
class LRModel:
    weights: np.ndarray
    bias: float
    iterations: int
    final_loss: float
    column_names: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "iterations": self.iterations,
            "final_loss": float(self.final_loss),
            "columns": list(self.column_names),
        }


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


# The loss and its gradient from per-row terms, which lr_fit evaluates once
# per distinct row and gathers back to the rows.
def _row_losses(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log(1 + e^z) - y*z for the logits z, via logaddexp for stability."""
    return np.logaddexp(0.0, z) - y * z


def _loss(row_losses: np.ndarray, w: np.ndarray, l2: float) -> float:
    return float(row_losses.mean() + 0.5 * l2 * np.dot(w, w))


def _gradient(
    residual: np.ndarray, w: np.ndarray, x: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    return x.T @ residual / x.shape[0] + l2 * w, float(residual.mean())


def nll_loss(w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean negative log-likelihood + (l2/2)*||w||^2, computed without overflow."""
    return _loss(_row_losses(x @ w + b, y), w, l2)


def nll_gradient(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient of nll_loss with respect to (w, b)."""
    return _gradient(_sigmoid(x @ w + b) - y, w, x, l2)


def lr_fit(matrix: FeatureMatrix) -> LRModel:
    """Gradient-descend the penalized NLL until ``TOLERANCE`` or ``MAX_ITERATIONS``."""
    y = matrix.labels.astype(np.float64)
    if y.min() == y.max():
        raise SingleClassTrainingError()
    x = matrix.rows
    first, inverse = matrix.groups
    xg, yg = x[first], y[first]
    w = np.zeros(matrix.width, dtype=np.float64)
    b = 0.0
    iterations = 0
    z = xg @ w + b
    loss = _loss(_row_losses(z, yg)[inverse], w, L2)
    for _ in range(MAX_ITERATIONS):
        grad_w, grad_b = _gradient((_sigmoid(z) - yg)[inverse], w, x, L2)
        w = w - LEARNING_RATE * grad_w
        b = b - LEARNING_RATE * grad_b
        z = xg @ w + b
        new_loss = _loss(_row_losses(z, yg)[inverse], w, L2)
        iterations += 1
        if abs(loss - new_loss) < TOLERANCE:
            loss = new_loss
            break
        loss = new_loss
    return LRModel(w, b, iterations, loss, tuple(n for c in matrix.columns for n in c.names))


def lr_predict(model: LRModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, class-1 probabilities) for every row of ``x``; 0.5 predicts 1."""
    x = require_width(x, model.weights.shape[0])
    p = _sigmoid(x @ model.weights + model.bias)
    return (p >= 0.5).astype(np.int64), p
