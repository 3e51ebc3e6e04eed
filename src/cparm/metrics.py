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
    """Counts of the four (prediction, truth) cells of two equally long 0/1
    sequences."""
    pred, true = np.asarray(predictions), np.asarray(truth)
    # cell 2*truth + prediction: 0 = tn, 1 = fp, 2 = fn, 3 = tp
    tn, fp, fn, tp = np.bincount(2 * true.astype(np.int64) + pred.astype(np.int64), minlength=4)
    return ConfusionMatrix(int(tp), int(tn), int(fp), int(fn))


def majority_label(attacks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each group's 0/1 majority label: an exact tie is 1 (attack), no rows 0."""
    return ((rows > 0) & (2 * attacks >= rows)).astype(np.int64)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    accuracy = (cm.tp + cm.tn) / cm.total
    fpr = _ratio(cm.fp, cm.fp + cm.tn)
    fnr = _ratio(cm.fn, cm.fn + cm.tp)
    far = (fpr + fnr) / 2 if fpr is not None and fnr is not None else None
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    return MetricsReport(accuracy, fpr, fnr, far, precision, recall)
