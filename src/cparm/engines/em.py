"""Expectation-maximization clustering with diagonal Gaussian components.

Fits K=2 components to the encoded feature matrix without looking at its
labels, then maps each cluster to the majority training label of the rows it
claims. The log-likelihood trace is kept per iteration; EM guarantees it
never decreases.

Both steps run over the distinct encoded rows, each weighted by the number
of rows it stands for: the E-step's terms (component log-densities,
responsibilities and log-likelihoods) are evaluated once per distinct row,
and the M-step's sums and the total log-likelihood are count-weighted sums
over those rows, in the order ``distinct_rows`` sorts them. The seeding
draws pick from all rows, each row's distance computed once per group, so
they are those of a pick over the rows themselves. ``distinct_rows`` groups
the rows without their labels, so not one bit of the model depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import TooFewRecordsError
from ..metrics import majority_label
from .encoding import FeatureEncoder, FeatureMatrix

VARIANCE_FLOOR = 1e-9
K = 2                 # components
MAX_ITERATIONS = 200  # per restart
TOLERANCE = 1e-6      # a restart stops once its log-likelihood gains less
RESTARTS = 5


@dataclass(frozen=True)
class EMModel:
    weights: np.ndarray                   # (k,)
    means: np.ndarray                     # (k, width)
    variances: np.ndarray                 # (k, width), floored
    ll_trace: tuple[float, ...]
    cluster_labels: tuple[int, ...]       # (k,) training label of each cluster
    encoder: FeatureEncoder               # the training set's, for predict; not dumped

    def to_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "means": [[float(v) for v in row] for row in self.means],
            "variances": [[float(v) for v in row] for row in self.variances],
            "cluster_labels": list(self.cluster_labels),
            "log_likelihood_trace": [float(v) for v in self.ll_trace],
        }


def _log_densities(x: np.ndarray, weights, means, variances) -> np.ndarray:
    """log(w_k) + log N(x | mu_k, diag var_k), shape (n, k); a cell too far
    from a mean for float64 gives that component -inf."""
    n, width = x.shape
    k = means.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    with np.errstate(over="ignore"):
        for j in range(k):
            diff2 = (x - means[j]) ** 2 / variances[j]
            out[:, j] = (
                np.log(weights[j])
                - 0.5 * (width * np.log(2.0 * np.pi) + np.log(variances[j]).sum())
                - 0.5 * diff2.sum(axis=1)
            )
    return out


def _normalize_log(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize in log space; returns (responsibilities, per-row log-likelihoods).

    A row every component scores -inf gets equal responsibilities and
    log-likelihood -inf.
    """
    m = scores.max(axis=1, keepdims=True)
    lost = np.isneginf(m[:, 0])
    if lost.any():
        scores = np.where(lost[:, None], 0.0, scores)
        m[lost] = 0.0
    shifted = np.exp(scores - m)
    norm = shifted.sum(axis=1, keepdims=True)
    row_ll = m[:, 0] + np.log(norm[:, 0])
    row_ll[lost] = -np.inf
    return shifted / norm, row_ll


def responsibilities(model: EMModel, x: np.ndarray) -> np.ndarray:
    """Posterior component memberships for each row; rows sum to 1."""
    resp, _ = _normalize_log(_log_densities(x, model.weights, model.means, model.variances))
    return resp


def _init_means(distinct: np.ndarray, inverse: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded distance-weighted pick of K rows as starting means, drawn over
    the rows ``distinct[inverse]``. Each squared distance is computed once
    per group and spread to the group's rows, so every draw is the one a
    pick over those rows themselves makes."""
    n = inverse.size
    chosen = [int(rng.integers(n))]
    for _ in range(K - 1):
        d2 = np.min(
            [((distinct - distinct[inverse[i]]) ** 2).sum(axis=1) for i in chosen], axis=0
        )[inverse]
        total = d2.sum()
        if total == 0.0:
            chosen.append((chosen[-1] + 1) % n)
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
    return distinct[inverse[chosen]]


def _fit_once(
    distinct: np.ndarray, inverse: np.ndarray, counts: np.ndarray, seed: int, restart: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, ...]]:
    """One seeded EM run: (weights, means, variances, ll_trace) over the rows
    ``distinct[inverse]``, row group g standing for ``counts[g]`` of them.
    Both steps see only the group rows ``distinct``."""
    width = distinct.shape[1]
    rng = np.random.default_rng([seed, restart])
    means = _init_means(distinct, inverse, rng)
    variances = np.ones((K, width), dtype=np.float64)
    weights = np.full(K, 1.0 / K, dtype=np.float64)

    trace: list[float] = []
    for _ in range(MAX_ITERATIONS):
        resp, row_ll = _normalize_log(_log_densities(distinct, weights, means, variances))
        resp = resp * counts[:, None]
        trace.append(float(counts @ row_ll))
        if len(trace) >= 2 and trace[-1] - trace[-2] < TOLERANCE:
            break
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / nk.sum()
        means = (resp.T @ distinct) / nk[:, None]
        for j in range(K):
            variances[j] = resp[:, j] @ (distinct - means[j]) ** 2 / nk[j]
        variances = np.maximum(variances, VARIANCE_FLOOR)
    return weights, means, variances, tuple(trace)


def em_fit(matrix: FeatureMatrix, seed: int = 0) -> EMModel:
    """Best of ``RESTARTS`` EM runs seeded by ``seed``, judged by final
    log-likelihood, with each cluster mapped to a training label.

    The labels only name the clusters.
    """
    if matrix.labels.size < 2 * K:
        raise TooFewRecordsError(f"EM with k={K} needs at least {2 * K} rows")
    distinct, inverse = matrix.distinct, matrix.inverse
    counts = np.bincount(inverse)
    runs = (_fit_once(distinct, inverse, counts, seed, r) for r in range(RESTARTS))
    # max keeps the first of equal final log-likelihoods
    weights, means, variances, trace = max(runs, key=lambda run: run[3][-1])
    resp, _ = _normalize_log(_log_densities(distinct, weights, means, variances))
    hard = resp.argmax(axis=1)[inverse]
    return EMModel(weights, means, variances, trace, map_clusters(hard, matrix.labels),
                   matrix.encoder)


def map_clusters(hard: np.ndarray, labels: np.ndarray) -> tuple[int, ...]:
    """Majority training label of each of the ``K`` clusters, given each
    row's cluster ``hard`` and label.

    If every cluster lands on the same label, the cluster with the largest
    attack fraction takes label 1 and the others label 0.
    """
    rows = np.bincount(hard, minlength=K)
    attacks = np.bincount(hard[labels == 1], minlength=K)
    mapping = majority_label(attacks, rows).tolist()
    if len(set(mapping)) == 1:
        hottest = int((attacks / np.maximum(rows, 1)).argmax())  # an empty cluster's is 0
        mapping = [int(j == hottest) for j in range(K)]
    return tuple(mapping)


def em_predict(model: EMModel, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(labels, class-1 probability) for each row of ``test``, via the cluster mapping."""
    resp = responsibilities(model, model.encoder.transform(test))
    mapping = np.asarray(model.cluster_labels)
    labels = mapping[resp.argmax(axis=1)]
    prob_1 = resp[:, mapping == 1].sum(axis=1)
    return labels, prob_1
