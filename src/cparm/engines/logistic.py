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
    out = np.empty_like(z)
    with np.errstate(**_QUIET):
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        e = np.exp(z[~pos])
        out[~pos] = e / (1.0 + e)
    return out


def nll_loss(w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean negative log-likelihood + (l2/2)*||w||^2, computed without overflow."""
    with np.errstate(**_QUIET):
        z = x @ w + b
        # log(1 + e^z) - y*z, via logaddexp for stability
        per_row = np.logaddexp(0.0, z) - y * z
        return float(per_row.mean() + 0.5 * l2 * np.dot(w, w))


def nll_gradient(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient of nll_loss with respect to (w, b)."""
    with np.errstate(**_QUIET):
        residual = _sigmoid(x @ w + b) - y
        grad_w = x.T @ residual / x.shape[0] + l2 * w
        grad_b = float(residual.mean())
    return grad_w, grad_b


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
    loss = nll_loss(w, b, x, y, hyper.l2)
    iterations = 0
    for _ in range(hyper.max_iterations):
        grad_w, grad_b = nll_gradient(w, b, x, y, hyper.l2)
        w = w - hyper.learning_rate * grad_w
        b = b - hyper.learning_rate * grad_b
        new_loss = nll_loss(w, b, x, y, hyper.l2)
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


def lr_predict(model: LRModel, row: np.ndarray) -> tuple[int, float]:
    """(label, class-1 probability); probability exactly 0.5 predicts 1."""
    row = np.asarray(row, dtype=np.float64)
    if row.shape != model.weights.shape:
        raise SchemaMismatchError(
            f"row width {row.shape} does not match model width {model.weights.shape}"
        )
    z = float(row @ model.weights + model.bias)
    p = float(_sigmoid(np.array([z]))[0])
    return (1 if p >= 0.5 else 0), p
