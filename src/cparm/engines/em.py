"""Expectation-maximization clustering with diagonal Gaussian components.

Fits K=2 components to the encoded feature matrix without looking at its
labels, then maps each cluster to the majority training label of the rows it
claims. The log-likelihood trace is kept per iteration; EM guarantees it
never decreases.

The E-step's per-row terms (component log-densities, responsibilities and
log-likelihoods) are evaluated once per distinct (encoded row, label) pair,
as in logistic regression, and gathered back to the rows; they depend on the
cells alone, so labels only split groups. The M-step's sums, the total
log-likelihood and the seeded starting means still run over all rows in row
order, so the fitted model is bit-identical to evaluating every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TooFewRowsError
from .encoding import FeatureMatrix, distinct_rows, require_width

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


def _init_means(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded distance-weighted pick of K distinct rows as starting means."""
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    for _ in range(K - 1):
        d2 = np.min(
            [((x - x[i]) ** 2).sum(axis=1) for i in chosen], axis=0
        )
        total = d2.sum()
        if total == 0.0:
            chosen.append((chosen[-1] + 1) % n)
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
    return x[chosen].copy()


def _fit_once(
    x: np.ndarray, first: np.ndarray, inverse: np.ndarray, seed: int, restart: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, ...]]:
    """One seeded EM run: (weights, means, variances, ll_trace). The E-step
    sees only the rows ``x[first]``."""
    n, width = x.shape
    distinct = x[first]
    rng = np.random.default_rng([seed, restart])
    means = _init_means(x, rng)
    variances = np.ones((K, width), dtype=np.float64)
    weights = np.full(K, 1.0 / K, dtype=np.float64)

    trace: list[float] = []
    for _ in range(MAX_ITERATIONS):
        resp, row_ll = _normalize_log(_log_densities(distinct, weights, means, variances))
        resp = np.take(resp, inverse, axis=0)  # faster than resp[inverse]
        trace.append(float(row_ll[inverse].sum()))
        if len(trace) >= 2 and trace[-1] - trace[-2] < TOLERANCE:
            break
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / nk.sum()
        means = (resp.T @ x) / nk[:, None]
        for j in range(K):
            variances[j] = resp[:, j] @ (x - means[j]) ** 2 / nk[j]
        variances = np.maximum(variances, VARIANCE_FLOOR)
    return weights, means, variances, tuple(trace)


def em_fit(matrix: FeatureMatrix, seed: int = 0) -> EMModel:
    """Best of ``RESTARTS`` EM runs seeded by ``seed``, judged by final
    log-likelihood, with each cluster mapped to a training label.

    The labels only split the E-step's row groups and name the clusters.
    """
    x = matrix.rows
    if x.shape[0] < 2 * K:
        raise TooFewRowsError(f"EM with k={K} needs at least {2 * K} rows")
    first, inverse = distinct_rows(x, matrix.labels)
    runs = (_fit_once(x, first, inverse, seed, r) for r in range(RESTARTS))
    # max keeps the first of equal final log-likelihoods
    weights, means, variances, trace = max(runs, key=lambda run: run[3][-1])
    resp, _ = _normalize_log(_log_densities(x[first], weights, means, variances))
    hard = resp.argmax(axis=1)[inverse]
    return EMModel(weights, means, variances, trace, map_clusters(hard, matrix.labels))


def map_clusters(hard: np.ndarray, labels: np.ndarray) -> tuple[int, ...]:
    """Majority training label of each of the ``K`` clusters, given each
    row's cluster ``hard`` and label.

    If every cluster lands on the same label, the cluster with the largest
    attack fraction takes label 1 and the others label 0.
    """
    attack_fraction = np.empty(K, dtype=np.float64)
    for j in range(K):
        members = labels[hard == j]
        attack_fraction[j] = members.mean() if members.size else 0.0
    mapping = [1 if f >= 0.5 else 0 for f in attack_fraction]  # exact tie -> attack
    if len(set(mapping)) == 1:
        hottest = int(attack_fraction.argmax())
        mapping = [int(j == hottest) for j in range(K)]
    return tuple(mapping)


def em_predict(model: EMModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, class-1 probability) for each row, via the cluster mapping."""
    resp = responsibilities(model, require_width(x, model.means.shape[1]))
    mapping = np.asarray(model.cluster_labels)
    labels = mapping[resp.argmax(axis=1)]
    prob_1 = resp[:, mapping == 1].sum(axis=1)
    return labels, prob_1
