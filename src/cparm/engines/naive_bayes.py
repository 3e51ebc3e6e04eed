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

from ..dataset import CATEGORICAL, NUMERIC, Dataset, require_schema
from ..errors import NonFiniteStatisticError, SingleClassTrainingError
from .logistic import sigmoid

VARIANCE_FLOOR = 1e-9
LAPLACE_ALPHA = 1.0


@dataclass(frozen=True)
class CategoricalLikelihood:
    kind = CATEGORICAL
    tables: tuple[dict[str, float], dict[str, float]]  # token -> P(token | class), same tokens

    def log_likelihoods(self, codes: np.ndarray, vocabulary: Sequence[str]) -> np.ndarray:
        """(2, n) log P(cell | class) for codes into ``vocabulary``; a missing
        cell (code -1) contributes 0."""
        # unseen token: uniform over the training tokens
        unseen = math.log(1.0 / len(self.tables[0]) if self.tables[0] else 1.0)
        table = np.empty((2, len(vocabulary) + 1))
        for cls in (0, 1):
            logs = {tok: math.log(p) for tok, p in self.tables[cls].items()}
            table[cls] = [logs.get(tok, unseen) for tok in vocabulary] + [0.0]
        return table[:, codes]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "tables": list(self.tables)}


@dataclass(frozen=True)
class GaussianLikelihood:
    kind = NUMERIC
    means: tuple[float, float]
    variances: tuple[float, float]

    def log_likelihoods(self, x: np.ndarray, vocabulary: Sequence[str]) -> np.ndarray:
        """(2, n) log N(cell | class mean, class variance); ``vocabulary``,
        empty for a numeric column, is not used. A missing cell (NaN)
        contributes 0, and a cell too far from a class mean for float64 gives
        that class -inf."""
        out = np.empty((2, x.shape[0]))
        with np.errstate(over="ignore"):
            for cls in (0, 1):
                mu, var = self.means[cls], self.variances[cls]
                out[cls] = -0.5 * math.log(2.0 * math.pi * var) - (x - mu) ** 2 / (2.0 * var)
        out[:, np.isnan(x)] = 0.0
        return out

    def to_dict(self) -> dict:
        return {"kind": self.kind, "means": list(self.means), "variances": list(self.variances)}


@dataclass(frozen=True)
class NBModel:
    feature_names: tuple[str, ...]
    priors: tuple[float, float]
    likelihoods: tuple[CategoricalLikelihood | GaussianLikelihood, ...]  # one per feature

    @property
    def kinds(self) -> tuple[str, ...]:
        """Each feature's kind: its likelihood's."""
        return tuple(lik.kind for lik in self.likelihoods)

    def to_dict(self) -> dict:
        features = {name: lik.to_dict() for name, lik in zip(self.feature_names, self.likelihoods)}
        return {"priors": list(self.priors), "features": features}


def nb_fit(train: Dataset) -> NBModel:
    """Estimate priors and the conditionals of every column, in order, from
    labeled rows."""
    labels = train.labels
    n = train.n_records
    n1 = int(labels.sum())
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise SingleClassTrainingError()
    priors = (n0 / n, n1 / n)

    likelihoods = tuple(
        _fit_tokens(column, vocab, labels) if attr.kind == CATEGORICAL
        else _fit_gaussian(attr.name, column, labels)
        for attr, column, vocab in zip(train.schema, train.columns, train.vocabularies)
    )
    return NBModel(train.attribute_names(), priors, likelihoods)


def _fit_tokens(codes: np.ndarray, vocab: tuple[str, ...], labels: np.ndarray) -> CategoricalLikelihood:
    """Laplace-smoothed token tables over the tokens the column holds."""
    valid = codes >= 0
    k = len(vocab)
    counts = np.bincount(labels[valid] * k + codes[valid], minlength=2 * k).reshape(2, k)
    used = np.flatnonzero(counts.sum(axis=0))
    tokens = tuple(vocab[j] for j in used.tolist())
    tables = []
    for cls in (0, 1):
        total = int(counts[cls].sum()) + LAPLACE_ALPHA * len(tokens)
        tables.append(
            {tok: (c + LAPLACE_ALPHA) / total for tok, c in zip(tokens, counts[cls, used].tolist())}
        )
    return CategoricalLikelihood((tables[0], tables[1]))


def _fit_gaussian(name: str, x: np.ndarray, labels: np.ndarray) -> GaussianLikelihood:
    """Per-class mean and floored variance of the non-missing cells.

    Both sums run left to right (the last entry of ``np.cumsum``) over exact
    squares, whatever the interpreter: numpy's pairwise sum and Python's
    compensated ``sum`` (3.12 on) can differ in the last bit, and the model
    dump is compared byte for byte. A sum that overflows float64 raises
    NonFiniteStatisticError naming the column.
    """
    means = []
    variances = []
    valid = ~np.isnan(x)
    for cls in (0, 1):
        vals = x[valid & (labels == cls)]
        if vals.size:
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                # + 0.0: a sum from 0, so cells all -0.0 have mean 0.0
                mu = float(np.cumsum(vals)[-1] + 0.0) / vals.size
                d = vals - mu
                var = float(np.cumsum(d * d)[-1] / vals.size)
            if not math.isfinite(var):  # an overflowed mu makes var inf or nan too
                raise NonFiniteStatisticError(name)
        else:
            mu, var = 0.0, 0.0
        means.append(mu)
        variances.append(max(var, VARIANCE_FLOOR))
    return GaussianLikelihood((means[0], means[1]), (variances[0], variances[1]))


def nb_predict(model: NBModel, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """MAP labels and class-1 posteriors of every test row. The test set's
    columns must be the model's features, with the same names and kinds in
    the same order.

    Missing cells contribute nothing to either class. Exact posterior ties
    predict 1: a false alarm is preferred over a miss. A row both classes
    score -inf is such a tie, with class-1 posterior 0.5.
    """
    require_schema(test, zip(model.feature_names, model.kinds))
    logs = np.empty((2, test.n_records))
    logs[0], logs[1] = math.log(model.priors[0]), math.log(model.priors[1])
    for column, vocab, lik in zip(test.columns, test.vocabularies, model.likelihoods):
        logs += lik.log_likelihoods(column, vocab)
    logs[:, np.isneginf(logs).all(axis=0)] = 0.0  # both classes -inf: a tie
    return (logs[1] >= logs[0]).astype(np.int64), sigmoid(logs[1] - logs[0])
