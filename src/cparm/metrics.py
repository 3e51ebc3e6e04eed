"""Confusion counts and the derived evaluation measures.

Conventions: class 1 is an attack, so tp counts correctly flagged attacks
and fp counts normal records flagged as attacks. The false alarm rate is
the mean of the false-positive and false-negative rates. Metrics with a
zero denominator are undefined and reported as None (JSON null).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, LengthMismatchError, NonBinaryLabelError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float | None
    fpr: float | None
    fnr: float | None
    far: float | None
    precision: float | None
    recall: float | None


def confusion(
    predictions: Sequence[int] | np.ndarray, truth: Sequence[int] | np.ndarray
) -> ConfusionMatrix:
    """Counts of the four (prediction, truth) cells; both must hold only 0 and 1."""
    pred, true = np.asarray(predictions), np.asarray(truth)
    if pred.shape != true.shape or pred.ndim != 1:
        raise LengthMismatchError(f"{pred.size} predictions for {true.size} truth labels")
    if not pred.size:
        raise EmptyInputError("cannot evaluate zero predictions")
    for name, values in (("prediction", pred), ("truth label", true)):
        outside = (values != 0) & (values != 1)
        if outside.any():
            raise NonBinaryLabelError(f"{name} {values[outside][0].item()!r} is not 0 or 1")
    # cell 2*truth + prediction: 0 = tn, 1 = fp, 2 = fn, 3 = tp
    tn, fp, fn, tp = np.bincount(2 * true.astype(np.int64) + pred.astype(np.int64), minlength=4)
    return ConfusionMatrix(int(tp), int(tn), int(fp), int(fn))


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    if cm.total < 1:
        raise EmptyInputError("confusion matrix is empty")
    accuracy = (cm.tp + cm.tn) / cm.total
    fpr = _ratio(cm.fp, cm.fp + cm.tn)
    fnr = _ratio(cm.fn, cm.fn + cm.tp)
    far = (fpr + fnr) / 2 if fpr is not None and fnr is not None else None
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    return MetricsReport(accuracy, fpr, fnr, far, precision, recall)
