"""Binary logistic regression trained by full-batch gradient descent.

Loss is the mean negative log-likelihood plus an L2 penalty on the weights
(bias unpenalized). Weights start at zero, so a zero-iteration fit predicts
0.5 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DivergedLossError, SchemaMismatchError, SingleClassTrainingError
from .encoding import FeatureMatrix


@dataclass(frozen=True)
class LRHyperParams:
    learning_rate: float = 0.1
    max_iterations: int = 500
    l2: float = 1e-4
    tolerance: float = 1e-8


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


# A diverging fit overflows to inf/nan; lr_fit turns that into
# DivergedLossError, so NumPy's floating-point warnings are silenced here.
_QUIET = dict(over="ignore", invalid="ignore")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


# The loss and its gradient given the logits z = x @ w + b, which lr_fit
# computes once per iteration for both.
def _loss_at(z: np.ndarray, w: np.ndarray, y: np.ndarray, l2: float) -> float:
    # log(1 + e^z) - y*z, via logaddexp for stability
    return float((np.logaddexp(0.0, z) - y * z).mean() + 0.5 * l2 * np.dot(w, w))


def _gradient_at(
    z: np.ndarray, w: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    residual = _sigmoid(z) - y
    return x.T @ residual / x.shape[0] + l2 * w, float(residual.mean())


def nll_loss(w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean negative log-likelihood + (l2/2)*||w||^2, computed without overflow."""
    with np.errstate(**_QUIET):
        return _loss_at(x @ w + b, w, y, l2)


def nll_gradient(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient of nll_loss with respect to (w, b)."""
    with np.errstate(**_QUIET):
        return _gradient_at(x @ w + b, w, x, y, l2)


def lr_fit(matrix: FeatureMatrix, hyper: LRHyperParams = LRHyperParams()) -> LRModel:
    """Gradient-descend the penalized NLL until tolerance or max iterations."""
    if matrix.labels is None:
        raise SchemaMismatchError("logistic regression needs labeled rows")
    y = matrix.labels.astype(np.float64)
    if y.min() == y.max():
        raise SingleClassTrainingError()
    x = matrix.rows
    w = np.zeros(matrix.width, dtype=np.float64)
    b = 0.0
    iterations = 0
    with np.errstate(**_QUIET):
        z = x @ w + b
        loss = _loss_at(z, w, y, hyper.l2)
        for _ in range(hyper.max_iterations):
            grad_w, grad_b = _gradient_at(z, w, x, y, hyper.l2)
            w = w - hyper.learning_rate * grad_w
            b = b - hyper.learning_rate * grad_b
            z = x @ w + b
            new_loss = _loss_at(z, w, y, hyper.l2)
            iterations += 1
            if not np.isfinite(new_loss) or not np.all(np.isfinite(w)):
                raise DivergedLossError(f"loss became non-finite at iteration {iterations}")
            if abs(loss - new_loss) < hyper.tolerance:
                loss = new_loss
                break
            loss = new_loss
    names: list[str] = []
    for c in matrix.columns:
        if c.categories:
            names.extend(f"{c.attribute}={tok}" for tok in c.categories)
        else:
            names.append(c.attribute)
    return LRModel(w, b, iterations, loss, tuple(names))


def lr_predict(model: LRModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, class-1 probabilities) for every row of ``x``; 0.5 predicts 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.weights.shape[0]:
        raise SchemaMismatchError(
            f"matrix shape {x.shape} does not match model width {model.weights.shape[0]}"
        )
    p = _sigmoid(x @ model.weights + model.bias)
    return (p >= 0.5).astype(np.int64), p
