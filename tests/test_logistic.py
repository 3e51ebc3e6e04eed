import math

import numpy as np
import pytest

from cparm.dataset import project
from cparm.engines import logistic
from cparm.engines.em import EMModel, em_predict
from cparm.engines.logistic import LRModel, lr_fit, lr_predict
from cparm.errors import SchemaMismatchError, SingleClassTrainingError
from oracles import (
    agrees,
    counted_nll_gradient,
    counted_nll_loss,
    fixed_matrices,
    identity_encoder,
    identity_matrix,
    matrix_of,
    nll_gradient,
    nll_loss,
    numeric_dataset,
    sorted_groups_reference,
)


def matrix_1d(x, y):
    return identity_matrix(np.reshape(x, (-1, 1)), y)


def descend(loss, gradient, x, *args):
    """Gradient descent from the zero model, with logistic's settings read
    at call time, on ``loss(w, b, x, *args)`` and its ``gradient``:
    (w, b, final loss, iterations)."""
    w, b = np.zeros(x.shape[1]), 0.0
    value, iterations = loss(w, b, x, *args), 0
    for iterations in range(1, logistic.MAX_ITERATIONS + 1):
        grad_w, grad_b = gradient(w, b, x, *args)
        w, b = w - logistic.LEARNING_RATE * grad_w, b - logistic.LEARNING_RATE * grad_b
        value, previous = loss(w, b, x, *args), value
        if abs(previous - value) < logistic.TOLERANCE:
            break
    return w, b, value, iterations


def separable_matrix():
    x = [-1.0] * 50 + [1.0] * 50
    y = [0] * 50 + [1] * 50
    return matrix_1d(x, y)


class TestFit:
    def test_separable_data_reaches_full_training_accuracy(self):
        matrix = separable_matrix()
        model = lr_fit(matrix)
        x = matrix.distinct[matrix.inverse]
        rows = [numeric_dataset(row[None]) for row in x]
        preds = [lr_predict(model, row)[0][0] for row in rows]
        assert preds == list(matrix.labels)
        labels, probs = lr_predict(model, numeric_dataset(x))
        assert labels.tolist() == preds
        assert probs.tolist() == [lr_predict(model, row)[1][0] for row in rows]

    def test_zero_iterations_is_the_zero_model(self, monkeypatch):
        monkeypatch.setattr(logistic, "MAX_ITERATIONS", 0)
        model = lr_fit(separable_matrix())
        assert model.weights.tolist() == [0.0]
        assert model.bias == 0.0
        (label,), (prob,) = lr_predict(model, numeric_dataset([[3.0]]))
        assert prob == 0.5 and label == 1

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassTrainingError):
            lr_fit(matrix_1d([1.0, 2.0], [1, 1]))

    def test_loss_non_increasing_at_small_learning_rate(self, monkeypatch):
        matrix = separable_matrix()
        monkeypatch.setattr(logistic, "LEARNING_RATE", 0.1)
        monkeypatch.setattr(logistic, "TOLERANCE", 0.0)
        losses = []
        for k in range(0, 30, 3):
            monkeypatch.setattr(logistic, "MAX_ITERATIONS", k)
            losses.append(lr_fit(matrix).final_loss)
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-12

    def test_equals_gradient_descent_on_the_reference_functions(self, monkeypatch):
        # lr_fit sums over the distinct (row, label) groups, each weighted
        # by its share of the rows, and shares one x @ w + b between a loss
        # and the next gradient; the result must be bit-identical to calling
        # counted_nll_gradient and counted_nll_loss on the groups in
        # distinct_rows' order, on rows that repeat as much as encoded
        # synthetic features do and on rows that never repeat
        rng = np.random.default_rng(3)
        n = 200
        monkeypatch.setattr(logistic, "MAX_ITERATIONS", 2000)
        monkeypatch.setattr(logistic, "TOLERANCE", 1e-5)

        def one_hot_and_count(count):
            # a one-hot block and a standardized integer-valued numeric
            # column, as the encoder lays out the synthetic signal features
            numeric = (count - count.mean()) / count.std()
            return np.column_stack([np.eye(3)[rng.integers(0, 3, size=n)], numeric])

        for x, distinct in (
            (rng.normal(size=(n, 4)), n),
            (one_hot_and_count(rng.integers(0, 4, size=n)), 12),
            (one_hot_and_count(rng.permutation(n)), n),
        ):
            assert len(np.unique(x, axis=0)) == distinct
            y = (x @ np.array([1.0, -2.0, 0.5, 1.5]) + rng.normal(size=n) > 0).astype(int)
            model = lr_fit(matrix_of(identity_encoder(4), x, y))

            first, counts, _ = sorted_groups_reference(x, y)
            groups = (x[first], y[first].astype(float), np.array(counts) / n, logistic.L2)
            assert model.final_loss == counted_nll_loss(model.weights, model.bias, *groups)
            w, b, loss, iterations = descend(counted_nll_loss, counted_nll_gradient, *groups)
            assert 0 < model.iterations == iterations < logistic.MAX_ITERATIONS
            assert model.weights.tobytes() == w.tobytes()
            assert model.bias == b and model.final_loss == loss

    def test_rows_under_both_labels_split_into_label_groups(self):
        # every distinct row occurs under both labels, in unequal numbers,
        # so lr_fit must split each row group into its two labels, label 0
        # first, as the (row, label) groups in distinct_rows' row order
        rng = np.random.default_rng(8)
        n = 120
        x = rng.normal(size=(6, 3))[np.arange(n) % 6]
        y = (rng.random(n) < 0.4).astype(int)
        first, counts, _ = sorted_groups_reference(x, y)
        assert len(first) == 12 and len(set(counts)) > 2
        model = lr_fit(matrix_of(identity_encoder(3), x, y))
        groups = (x[first], y[first].astype(float), np.array(counts) / n, logistic.L2)
        w, b, loss, iterations = descend(counted_nll_loss, counted_nll_gradient, *groups)
        assert model.iterations == iterations
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias == b and model.final_loss == loss

    def test_agrees_with_the_all_row_descent(self):
        # count-weighted sums differ from the all-row sums in their last digits
        for matrix, _ in fixed_matrices():
            model = lr_fit(matrix)
            w, b, loss, iterations = descend(
                nll_loss, nll_gradient, matrix.distinct[matrix.inverse],
                matrix.labels.astype(float), logistic.L2
            )
            assert model.iterations == iterations
            assert agrees(model.weights, w) and agrees(model.bias, b)
            assert agrees(model.final_loss, loss)

    def test_deterministic(self):
        a = lr_fit(separable_matrix())
        b = lr_fit(separable_matrix())
        assert a.weights.tolist() == b.weights.tolist()
        assert a.bias == b.bias and a.final_loss == b.final_loss


def other_columns():
    """Test sets that are not the columns x0, x1 of a two-column model: one
    column, three columns, and the two in the other order."""
    return (numeric_dataset(np.ones((3, 1))), numeric_dataset(np.zeros((3, 3))),
            project(numeric_dataset(np.zeros((3, 2))), ["x1", "x0"]))


class TestPredict:
    def test_logistic_of_log_three(self):
        model = LRModel(np.zeros(1), math.log(3.0), 0, 0.0, identity_encoder(1))
        (label,), (prob,) = lr_predict(model, numeric_dataset([[0.0]]))
        assert abs(prob - 0.75) < 1e-15
        assert label == 1

    def test_saturation(self):
        model = LRModel(np.array([50.0]), 0.0, 0, 0.0, identity_encoder(1))
        _, (prob,) = lr_predict(model, numeric_dataset([[20.0]]))
        assert prob > 1 - 1e-12

    def test_infinite_cell(self):
        # a test cell past float64 once standardized encodes as +-inf; its
        # logit saturates the probability without a RuntimeWarning
        model = LRModel(np.array([2.0, -1.0]), 0.5, 0, 0.0, identity_encoder(2))
        x = np.array([[np.inf, 0.0], [-np.inf, 0.0], [0.0, np.inf], [1.0, 1.0]])
        labels, prob = lr_predict(model, numeric_dataset(x))
        assert prob[:3].tolist() == [1.0, 0.0, 0.0]
        assert labels.tolist() == [1, 0, 0, 1]

    def test_width_mismatch(self):
        # the model's encoder refuses a test set without its columns
        model = LRModel(np.zeros(2), 0.0, 0, 0.0, identity_encoder(2))
        for test in other_columns():
            with pytest.raises(SchemaMismatchError):
                lr_predict(model, test)

    def test_em_width_mismatch(self):
        # EM's predict shares LR's column check: a one-column test set must
        # not broadcast against a two-column model
        model = EMModel(np.full(2, 0.5), np.zeros((2, 2)), np.ones((2, 2)), (0.0,), (0, 1),
                        identity_encoder(2))
        for test in other_columns():
            with pytest.raises(SchemaMismatchError):
                em_predict(model, test)
        assert em_predict(model, numeric_dataset(np.zeros((3, 2))))[0].shape == (3,)


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(20)
        step = 1e-6
        for _ in range(20):
            n, width = int(rng.integers(5, 40)), int(rng.integers(1, 6))
            x = rng.normal(size=(n, width))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(scale=0.5, size=width)
            b = float(rng.normal(scale=0.5))
            l2 = float(rng.uniform(0.0, 0.01))

            grad_w, grad_b = nll_gradient(w, b, x, y, l2)

            numeric = np.empty(width + 1)
            for j in range(width):
                delta = np.zeros(width)
                delta[j] = step
                numeric[j] = (
                    nll_loss(w + delta, b, x, y, l2) - nll_loss(w - delta, b, x, y, l2)
                ) / (2 * step)
            numeric[width] = (
                nll_loss(w, b + step, x, y, l2) - nll_loss(w, b - step, x, y, l2)
            ) / (2 * step)

            analytic = np.append(grad_w, grad_b)
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-5
