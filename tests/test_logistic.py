import math

import numpy as np
import pytest

from cparm.engines import logistic
from cparm.engines.em import EMModel, em_predict
from cparm.engines.encoding import ColumnSpec, FeatureMatrix
from cparm.engines.logistic import (
    LRModel,
    lr_fit,
    lr_predict,
    nll_gradient,
    nll_loss,
)
from cparm.errors import SchemaMismatchError, SingleClassTrainingError


def matrix_1d(x, y):
    columns = (ColumnSpec("x", "numeric"),)
    return FeatureMatrix(columns, np.asarray(x, dtype=float).reshape(-1, 1),
                         np.asarray(y, dtype=int))


def separable_matrix():
    x = [-1.0] * 50 + [1.0] * 50
    y = [0] * 50 + [1] * 50
    return matrix_1d(x, y)


class TestFit:
    def test_separable_data_reaches_full_training_accuracy(self):
        matrix = separable_matrix()
        model = lr_fit(matrix)
        preds = [lr_predict(model, row[None])[0][0] for row in matrix.rows]
        assert preds == list(matrix.labels)
        labels, probs = lr_predict(model, matrix.rows)
        assert labels.tolist() == preds
        assert probs.tolist() == [lr_predict(model, row[None])[1][0] for row in matrix.rows]

    def test_zero_iterations_is_the_zero_model(self, monkeypatch):
        monkeypatch.setattr(logistic, "MAX_ITERATIONS", 0)
        model = lr_fit(separable_matrix())
        assert model.weights.tolist() == [0.0]
        assert model.bias == 0.0
        (label,), (prob,) = lr_predict(model, np.array([3.0])[None])
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
        # lr_fit evaluates its per-row terms once per distinct (row, label)
        # and shares one x @ w + b between a loss and the next gradient; the
        # result must be bit-identical to calling nll_gradient and nll_loss,
        # on rows that repeat as much as encoded synthetic features do and
        # on rows that never repeat
        rng = np.random.default_rng(3)
        n = 200
        monkeypatch.setattr(logistic, "MAX_ITERATIONS", 2000)
        monkeypatch.setattr(logistic, "TOLERANCE", 1e-5)
        rate, cap, l2, tolerance = (
            logistic.LEARNING_RATE, logistic.MAX_ITERATIONS, logistic.L2, logistic.TOLERANCE
        )

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
            columns = tuple(ColumnSpec(f"x{i}", "numeric") for i in range(4))
            model = lr_fit(FeatureMatrix(columns, x, y))

            yf = y.astype(float)
            assert model.final_loss == nll_loss(model.weights, model.bias, x, yf, l2)
            w, b = np.zeros(4), 0.0
            loss = nll_loss(w, b, x, yf, l2)
            for iterations in range(1, cap + 1):
                grad_w, grad_b = nll_gradient(w, b, x, yf, l2)
                w, b = w - rate * grad_w, b - rate * grad_b
                loss, previous = nll_loss(w, b, x, yf, l2), loss
                if abs(previous - loss) < tolerance:
                    break
            assert 0 < model.iterations == iterations < cap
            assert model.weights.tobytes() == w.tobytes()
            assert model.bias == b and model.final_loss == loss

    def test_deterministic(self):
        a = lr_fit(separable_matrix())
        b = lr_fit(separable_matrix())
        assert a.weights.tolist() == b.weights.tolist()
        assert a.bias == b.bias and a.final_loss == b.final_loss


class TestPredict:
    def test_logistic_of_log_three(self):
        model = LRModel(np.zeros(1), math.log(3.0), 0, 0.0, ("x",))
        (label,), (prob,) = lr_predict(model, np.array([0.0])[None])
        assert abs(prob - 0.75) < 1e-15
        assert label == 1

    def test_saturation(self):
        model = LRModel(np.array([50.0]), 0.0, 0, 0.0, ("x",))
        _, (prob,) = lr_predict(model, np.array([20.0])[None])
        assert prob > 1 - 1e-12

    def test_infinite_cell(self):
        # a test cell past float64 once standardized encodes as +-inf; its
        # logit saturates the probability without a RuntimeWarning
        model = LRModel(np.array([2.0, -1.0]), 0.5, 0, 0.0, ("a", "b"))
        x = np.array([[np.inf, 0.0], [-np.inf, 0.0], [0.0, np.inf], [1.0, 1.0]])
        labels, prob = lr_predict(model, x)
        assert prob[:3].tolist() == [1.0, 0.0, 0.0]
        assert labels.tolist() == [1, 0, 0, 1]

    def test_width_mismatch(self):
        model = LRModel(np.zeros(2), 0.0, 0, 0.0, ("a", "b"))
        for x in (np.array([1.0])[None], np.zeros(2), np.zeros((3, 3))):
            with pytest.raises(SchemaMismatchError):
                lr_predict(model, x)

    def test_em_width_mismatch(self):
        # EM's predict shares LR's width check: a one-column matrix must not
        # broadcast against a two-column model
        model = EMModel(np.full(2, 0.5), np.zeros((2, 2)), np.ones((2, 2)), (0.0,), (0, 1))
        for x in (np.ones((3, 1)), np.zeros(2), np.zeros((3, 3))):
            with pytest.raises(SchemaMismatchError):
                em_predict(model, x)
        assert em_predict(model, np.zeros((3, 2)))[0].shape == (3,)


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
