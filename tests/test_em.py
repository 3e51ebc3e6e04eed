from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cparm.engines import em
from cparm.engines.em import (
    VARIANCE_FLOOR,
    em_fit,
    em_predict,
    map_clusters,
    responsibilities,
)
from cparm.errors import TooFewRecordsError
from oracles import (
    agrees,
    em_fit_reference,
    fixed_matrices,
    identity_matrix,
    numeric_dataset,
    two_blobs,
)


class TestFit:
    def test_recovers_two_blobs(self):
        x, _ = two_blobs()
        model = em_fit(identity_matrix(x), 3)
        means = sorted(float(m[0]) for m in model.means)
        assert abs(means[0] - (-5.0)) < 0.3
        assert abs(means[1] - 5.0) < 0.3
        for w in model.weights:
            assert abs(float(w) - 0.5) < 0.1

    def test_identical_points_survive(self):
        x = np.full((10, 2), 3.0)
        model = em_fit(identity_matrix(x), 1)
        assert np.isfinite(model.ll_trace[-1])
        assert np.all(model.variances == VARIANCE_FLOOR)
        assert np.allclose(model.means, 3.0)

    def test_trace_non_decreasing(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            x = rng.normal(size=(60, 2))
            model = em_fit(identity_matrix(x), seed)
            trace = np.array(model.ll_trace)
            assert np.all(np.diff(trace) >= -1e-9)

    def test_responsibilities_rows_sum_to_one(self):
        x, _ = two_blobs(seed=5)
        model = em_fit(identity_matrix(x), 5)
        resp = responsibilities(model, x)
        assert np.all(np.abs(resp.sum(axis=1) - 1.0) < 1e-12)

    def test_weights_positive_and_normalized(self):
        x, _ = two_blobs(seed=2)
        model = em_fit(identity_matrix(x), 2)
        assert np.all(model.weights > 0)
        assert abs(float(model.weights.sum()) - 1.0) < 1e-12

    def test_too_few_rows(self):
        with pytest.raises(TooFewRecordsError):
            em_fit(identity_matrix(np.zeros((3, 1))))

    def test_deterministic_per_seed(self):
        x, _ = two_blobs(seed=7)
        a = em_fit(identity_matrix(x), 11)
        b = em_fit(identity_matrix(x), 11)
        assert a.ll_trace == b.ll_trace
        assert np.array_equal(a.means, b.means)

    def test_labels_play_no_part_in_the_fit(self):
        x, labels = two_blobs(seed=12)
        a = em_fit(identity_matrix(x, labels), 12)
        b = em_fit(identity_matrix(x, 1 - labels), 12)
        assert a.ll_trace == b.ll_trace
        assert a.means.tobytes() == b.means.tobytes()
        assert a.variances.tobytes() == b.variances.tobytes()
        assert a.cluster_labels == tuple(1 - c for c in b.cluster_labels)

        # eight rows, each repeated under both labels in unequal numbers:
        # grouping by (row, label) would give other groups for other labels
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 2))[np.arange(120) % 8]
        labels = (rng.random(120) < 0.3).astype(int)
        assert {(r.tobytes(), y) for r, y in zip(x, labels)} == {
            (r.tobytes(), y) for r in x for y in (0, 1)
        }
        a = em_fit(identity_matrix(x, labels), 12)
        for other in (1 - labels, rng.permutation(labels)):
            b = em_fit(identity_matrix(x, other), 12)
            assert a.ll_trace == b.ll_trace
            assert a.means.tobytes() == b.means.tobytes()
            assert a.variances.tobytes() == b.variances.tobytes()


@st.composite
def em_cases(draw):
    """(matrix, seed, max_iterations, restarts): labelled rows drawn with
    duplicates, all distinct or all identical, and optionally a first column
    that holds both 0.0 and -0.0; the last two values stand in for the EM
    module's constants."""
    n = draw(st.integers(4, 40))
    width = draw(st.integers(1, 12))
    cell = st.integers(-3, 3).map(float)
    layout = draw(st.sampled_from(["duplicated", "distinct", "identical"]))
    if layout == "duplicated":
        pool = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=2, max_size=5))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        x = np.array([pool[i] for i in picks])
    elif layout == "distinct":
        x = np.array(draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                                   min_size=n, max_size=n)))
        x[:, 0] = draw(st.permutations(range(n)))
    else:
        x = np.tile(draw(st.lists(cell, min_size=width, max_size=width)), (n, 1))
    if draw(st.booleans()):
        signs = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
        x[:, 0] = [0.0, -0.0] + [-0.0 if s else 0.0 for s in signs]
    seed = draw(st.integers(0, 3))
    max_iterations = draw(st.integers(1, 30))
    restarts = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return identity_matrix(x, labels), seed, max_iterations, restarts


def assert_restart_chosen(model, matrix, seed, restart):
    """em_fit chose restart ``restart``: it beats every earlier restart and
    no later one replaces it."""
    with patch.object(em, "RESTARTS", restart + 1):
        assert em_fit(matrix, seed).ll_trace == model.ll_trace
    if restart:
        with patch.object(em, "RESTARTS", restart):
            assert em_fit(matrix, seed).ll_trace[-1] < model.ll_trace[-1]


class TestReference:
    @settings(deadline=None, max_examples=150)
    @given(em_cases())
    def test_equals_the_fit_on_every_row(self, case):
        matrix, seed, max_iterations, restarts = case
        # patch.object and not the monkeypatch fixture, which would undo its
        # patches only after the last example
        with patch.object(em, "MAX_ITERATIONS", max_iterations):
            with patch.object(em, "RESTARTS", restarts):
                model = em_fit(matrix, seed)
                rows = matrix.distinct[matrix.inverse]
                best, restart, hard = em_fit_reference(rows, seed, grouped=True)
            weights, means, variances, trace = best
            assert model.weights.tobytes() == weights.tobytes()
            assert model.means.tobytes() == means.tobytes()
            assert model.variances.tobytes() == variances.tobytes()
            assert np.array(model.ll_trace).tobytes() == np.array(trace).tobytes()
            assert_restart_chosen(model, matrix, seed, restart)
        assert model.cluster_labels == map_clusters(hard, matrix.labels)

    def test_agrees_with_the_all_row_fit(self):
        # count-weighted sums differ from the all-row sums in their last
        # digits; on restarts that are not near-tied the fits agree
        for matrix, seed in fixed_matrices():
            model = em_fit(matrix, seed)
            rows = matrix.distinct[matrix.inverse]
            (weights, means, variances, trace), restart, hard = em_fit_reference(rows, seed)
            assert len(model.ll_trace) == len(trace)
            assert_restart_chosen(model, matrix, seed, restart)
            assert model.cluster_labels == map_clusters(hard, matrix.labels)
            assert agrees(model.weights, weights) and agrees(model.means, means)
            assert agrees(model.variances, variances) and agrees(model.ll_trace, trace)


class TestClusterMapping:
    def test_majority_mapping(self):
        x, labels = two_blobs(seed=4)
        model = em_fit(identity_matrix(x, labels), 4)
        assert sorted(model.cluster_labels) == [0, 1]

    def test_planted_blobs_reach_high_accuracy(self):
        x, labels = two_blobs(seed=6)
        model = em_fit(identity_matrix(x, labels), 6)
        preds, prob_1 = em_predict(model, numeric_dataset(x))
        accuracy = float((preds == labels).mean())
        assert accuracy >= 0.95
        assert np.all((prob_1 >= 0) & (prob_1 <= 1))

    def test_same_majority_disambiguated_by_attack_fraction(self):
        # both clusters lean label 0; the one with more attacks must map to 1
        x = np.vstack([np.full((10, 1), -4.0), np.full((10, 1), 4.0)])
        labels = np.array([0] * 9 + [1] + [0] * 6 + [1] * 4)
        model = em_fit(identity_matrix(x, labels), 0)
        assert sorted(model.cluster_labels) == [0, 1]
        resp = responsibilities(model, x)
        hard = resp.argmax(axis=1)
        fractions = [labels[hard == j].mean() for j in range(2)]
        assert model.cluster_labels[int(np.argmax(fractions))] == 1

    def test_row_too_far_from_every_mean(self):
        # (1e300 - mean) ** 2 overflows float64: every component scores -inf,
        # so the row's responsibilities are equal
        x, labels = two_blobs(seed=13)
        model = em_fit(identity_matrix(x, labels), 13)
        assert responsibilities(model, np.array([[1e300]])).tolist() == [[0.5, 0.5]]
        _, prob_1 = em_predict(model, numeric_dataset([[1e300], [5.0]]))
        assert prob_1[0] == 0.5 and prob_1[1] > 0.99

    def test_mapping_rules(self):
        hard = np.array([0, 0, 1, 1, 1])
        # majorities 1 and 0
        assert map_clusters(hard, np.array([1, 1, 0, 0, 1])) == (1, 0)
        # an exact tie counts as attack: cluster 0 is [0, 1]
        assert map_clusters(hard, np.array([0, 1, 0, 0, 0])) == (1, 0)
        # both clusters lean attack: the one with the larger attack share keeps 1
        assert map_clusters(hard, np.array([1, 1, 1, 1, 0])) == (1, 0)
        # a cluster that claims no row has attack share 0
        assert map_clusters(np.zeros(4, dtype=int), np.array([1, 1, 1, 0])) == (1, 0)
