"""Binary logistic regression trained by full-batch gradient descent.

Loss is the mean negative log-likelihood plus an L2 penalty on the weights
(bias unpenalized). Weights start at zero, so a zero-iteration fit predicts
0.5 everywhere.

Each iteration runs over the (encoded row, label) pairs that occur, each
weighted by its share of the rows: the logits, residuals and losses are
evaluated once per pair, and the gradient and the mean loss are
count-weighted sums over the pairs. The pairs split each row group of
``distinct_rows`` by label, so they come in that function's order of the
rows, label 0 first. The encoder's columns are finite (a standardized one
within ±√n) and every residual lies in [-1, 1] before its weighting, so
each step, the weights and the loss stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import SingleClassTrainingError
from .encoding import FeatureEncoder, FeatureMatrix


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
    encoder: FeatureEncoder                # the training set's, for predict

    def to_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "iterations": self.iterations,
            "final_loss": float(self.final_loss),
            "columns": [name for c in self.encoder.columns for name in c.names],
        }


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _loss(z: np.ndarray, y: np.ndarray, share: np.ndarray, w: np.ndarray) -> float:
    """The ``share``-weighted mean of log(1 + e^z) - y*z over the logits z
    (logaddexp keeps it finite), plus (L2/2)*||w||^2."""
    return float(share @ (np.logaddexp(0.0, z) - y * z) + 0.5 * L2 * np.dot(w, w))


def lr_fit(matrix: FeatureMatrix) -> LRModel:
    """Gradient-descend the penalized NLL until ``TOLERANCE`` or ``MAX_ITERATIONS``."""
    labels = matrix.labels
    if labels.min() == labels.max():
        raise SingleClassTrainingError()
    distinct, inverse = matrix.groups
    # the (row group, label) pairs that occur, label 0 first within a row group
    pairs = np.bincount(2 * inverse + labels)
    kept = np.flatnonzero(pairs)
    xg, yg = distinct[kept // 2], (kept % 2).astype(np.float64)
    share = pairs[kept] / inverse.size  # of the rows, per pair
    w = np.zeros(matrix.width, dtype=np.float64)
    b = 0.0
    iterations = 0
    z = xg @ w + b
    loss = _loss(z, yg, share, w)
    for _ in range(MAX_ITERATIONS):
        residual = (sigmoid(z) - yg) * share
        w = w - LEARNING_RATE * (xg.T @ residual + L2 * w)
        b = b - LEARNING_RATE * float(residual.sum())
        z = xg @ w + b
        new_loss = _loss(z, yg, share, w)
        iterations += 1
        if abs(loss - new_loss) < TOLERANCE:
            loss = new_loss
            break
        loss = new_loss
    return LRModel(w, b, iterations, loss, FeatureEncoder(matrix.columns))


def lr_predict(model: LRModel, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(labels, class-1 probabilities) for every row of ``test``; 0.5 predicts 1."""
    p = sigmoid(model.encoder.transform(test).rows @ model.weights + model.bias)
    return (p >= 0.5).astype(np.int64), p
