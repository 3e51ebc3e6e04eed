import math

import numpy as np
import pytest

from cparm.engines.encoding import ColumnSpec, FeatureMatrix
from cparm.engines.logistic import (
    LRHyperParams,
    LRModel,
    lr_fit,
    lr_predict,
    nll_gradient,
    nll_loss,
)
from cparm.errors import DivergedLossError, SchemaMismatchError, SingleClassTrainingError


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

    def test_zero_iterations_is_the_zero_model(self):
        model = lr_fit(separable_matrix(), LRHyperParams(max_iterations=0))
        assert model.weights.tolist() == [0.0]
        assert model.bias == 0.0
        (label,), (prob,) = lr_predict(model, np.array([3.0])[None])
        assert prob == 0.5 and label == 1

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassTrainingError):
            lr_fit(matrix_1d([1.0, 2.0], [1, 1]))

    def test_diverged_loss_detected(self):
        with pytest.raises(DivergedLossError):
            lr_fit(separable_matrix(), LRHyperParams(learning_rate=1e160, max_iterations=10))

    def test_loss_non_increasing_at_small_learning_rate(self):
        matrix = separable_matrix()
        losses = [
            lr_fit(matrix, LRHyperParams(learning_rate=0.1, max_iterations=k, tolerance=0.0)).final_loss
            for k in range(0, 30, 3)
        ]
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-12

    def test_equals_gradient_descent_on_the_reference_functions(self):
        # lr_fit evaluates its per-row terms once per distinct (row, label)
        # and shares one x @ w + b between a loss and the next gradient; the
        # result must be bit-identical to calling nll_gradient and nll_loss,
        # on rows that repeat as much as encoded synthetic features do and
        # on rows that never repeat
        rng = np.random.default_rng(3)
        n = 200

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
            hyper = LRHyperParams(max_iterations=2000, tolerance=1e-5)
            model = lr_fit(FeatureMatrix(columns, x, y), hyper)

            yf = y.astype(float)
            assert model.final_loss == nll_loss(model.weights, model.bias, x, yf, hyper.l2)
            w, b = np.zeros(4), 0.0
            loss = nll_loss(w, b, x, yf, hyper.l2)
            for iterations in range(1, hyper.max_iterations + 1):
                grad_w, grad_b = nll_gradient(w, b, x, yf, hyper.l2)
                w, b = w - hyper.learning_rate * grad_w, b - hyper.learning_rate * grad_b
                loss, previous = nll_loss(w, b, x, yf, hyper.l2), loss
                if abs(previous - loss) < hyper.tolerance:
                    break
            assert 0 < model.iterations == iterations < hyper.max_iterations
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

    def test_width_mismatch(self):
        model = LRModel(np.zeros(2), 0.0, 0, 0.0, ("a", "b"))
        for x in (np.array([1.0])[None], np.zeros(2), np.zeros((3, 3))):
            with pytest.raises(SchemaMismatchError):
                lr_predict(model, x)


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
