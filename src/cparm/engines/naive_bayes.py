"""Naive Bayes decision engine over raw (un-encoded) feature values.

Maximum-a-posteriori classification: class priors times the product of
per-feature conditional likelihoods, evaluated in log space. Categorical
features use Laplace-smoothed token tables, numeric features per-class
Gaussians with a variance floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dataset import CATEGORICAL, Dataset, Value
from ..errors import SchemaMismatchError, SingleClassTrainingError, UnknownFeatureError
from .logistic import _sigmoid

VARIANCE_FLOOR = 1e-9
LAPLACE_ALPHA = 1.0


@dataclass(frozen=True)
class CategoricalLikelihood:
    vocabulary: tuple[str, ...]
    tables: tuple[dict[str, float], dict[str, float]]  # token -> P(token | class)

    def log_likelihoods(self, column: Sequence[Value]) -> np.ndarray:
        """(2, n) log P(cell | class); a missing cell contributes 0."""
        bad = next((v for v in column if v is not None and not isinstance(v, str)), None)
        if bad is not None:
            raise SchemaMismatchError(f"expected token for categorical feature, got {bad!r}")
        # unseen token: uniform over the training vocabulary
        unseen = math.log(1.0 / len(self.vocabulary) if self.vocabulary else 1.0)
        out = np.empty((2, len(column)))
        for cls in (0, 1):
            logs = {tok: math.log(p) for tok, p in self.tables[cls].items()}
            logs[None] = 0.0
            out[cls] = [logs.get(v, unseen) for v in column]
        return out


@dataclass(frozen=True)
class GaussianLikelihood:
    means: tuple[float, float]
    variances: tuple[float, float]

    def log_likelihoods(self, column: Sequence[Value]) -> np.ndarray:
        """(2, n) log N(cell | class mean, class variance); a missing cell contributes 0."""
        bad = next((v for v in column if isinstance(v, str)), None)
        if bad is not None:
            raise SchemaMismatchError(f"expected number for numeric feature, got {bad!r}")
        # None becomes NaN, which marks missing cells: parsing never yields a NaN value
        x = np.array(column, dtype=np.float64)
        out = np.empty((2, len(column)))
        for cls in (0, 1):
            mu, var = self.means[cls], self.variances[cls]
            out[cls] = -0.5 * math.log(2.0 * math.pi * var) - (x - mu) ** 2 / (2.0 * var)
        out[:, np.isnan(x)] = 0.0
        return out


@dataclass(frozen=True)
class NBModel:
    feature_names: tuple[str, ...]
    kinds: tuple[str, ...]
    priors: tuple[float, float]
    likelihoods: tuple[CategoricalLikelihood | GaussianLikelihood, ...]

    def to_dict(self) -> dict:
        features = {}
        for name, kind, lik in zip(self.feature_names, self.kinds, self.likelihoods):
            if isinstance(lik, CategoricalLikelihood):
                features[name] = {
                    "kind": kind,
                    "tables": [dict(sorted(t.items())) for t in lik.tables],
                }
            else:
                features[name] = {
                    "kind": kind,
                    "means": list(lik.means),
                    "variances": list(lik.variances),
                }
        return {"priors": list(self.priors), "features": features}


def nb_fit(train: Dataset, features: Sequence[str]) -> NBModel:
    """Estimate priors and per-feature conditionals from labeled rows."""
    by_name = {a.name: a for a in train.schema}
    for name in features:
        if name not in by_name:
            raise UnknownFeatureError(name)
    n = train.n_records
    n1 = sum(train.labels)
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise SingleClassTrainingError()
    priors = (n0 / n, n1 / n)

    likelihoods: list[CategoricalLikelihood | GaussianLikelihood] = []
    kinds = []
    for name in features:
        attr = by_name[name]
        kinds.append(attr.kind)
        column = train.columns[attr.index]
        split = ([], [])
        for v, label in zip(column, train.labels):
            if v is not None:
                split[label].append(v)
        if attr.kind == CATEGORICAL:
            vocab = tuple(sorted(set(split[0]) | set(split[1])))
            tables = []
            for cls in (0, 1):
                total = len(split[cls]) + LAPLACE_ALPHA * len(vocab)
                counts = {tok: 0 for tok in vocab}
                for tok in split[cls]:
                    counts[tok] += 1
                tables.append(
                    {tok: (c + LAPLACE_ALPHA) / total for tok, c in counts.items()}
                )
            likelihoods.append(CategoricalLikelihood(vocab, (tables[0], tables[1])))
        else:
            means = []
            variances = []
            for cls in (0, 1):
                vals = split[cls]
                if vals:
                    mu = sum(vals) / len(vals)
                    var = sum((x - mu) ** 2 for x in vals) / len(vals)
                else:
                    mu, var = 0.0, 0.0
                means.append(mu)
                variances.append(max(var, VARIANCE_FLOOR))
            likelihoods.append(GaussianLikelihood((means[0], means[1]), (variances[0], variances[1])))

    return NBModel(tuple(features), tuple(kinds), priors, tuple(likelihoods))


def nb_predict(
    model: NBModel, columns: Sequence[Sequence[Value]]
) -> tuple[np.ndarray, np.ndarray]:
    """MAP labels and class-1 posteriors for raw feature values, one column
    per model feature in the model's order.

    Missing cells contribute nothing to either class. Exact posterior ties
    predict 1: a false alarm is preferred over a miss.
    """
    width = len(model.feature_names)
    n = len(columns[0]) if columns else 0
    if len(columns) != width or any(len(col) != n for col in columns):
        raise SchemaMismatchError(f"expected {width} columns of equal length")
    logs = np.empty((2, n))
    logs[0], logs[1] = math.log(model.priors[0]), math.log(model.priors[1])
    for column, lik in zip(columns, model.likelihoods):
        logs += lik.log_likelihoods(column)
    return (logs[1] >= logs[0]).astype(np.int64), _sigmoid(logs[1] - logs[0])
