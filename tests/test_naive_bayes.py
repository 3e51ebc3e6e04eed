import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cparm.dataset import AttributeSchema, Dataset, project
from cparm.engines.naive_bayes import (
    CategoricalLikelihood,
    GaussianLikelihood,
    NBModel,
    VARIANCE_FLOOR,
    nb_fit,
    nb_predict,
)
from cparm.errors import NonFiniteStatisticError, SchemaMismatchError, SingleClassTrainingError
from oracles import cells, dataset, nb_test_set, transpose


def labeled_dataset(columns, kinds, labels):
    schema = tuple(
        AttributeSchema(f"f{i}", kind) for i, kind in enumerate(kinds)
    )
    return dataset(schema, columns, tuple(labels))


def sequential_gaussian(values, labels, cls):
    """(mean, floored variance) of class ``cls``'s non-missing cells, each a
    sum from 0 run left to right; (0.0, the floor) when there are none."""
    vals = [v for v, y in zip(values, labels) if y == cls and v is not None]
    if not vals:
        return 0.0, VARIANCE_FLOOR
    mu = 0
    for v in vals:
        mu += v
    mu /= len(vals)
    var = 0
    for v in vals:
        var += (v - mu) * (v - mu)
    var /= len(vals)
    return mu, max(var, VARIANCE_FLOOR)


def long_column():
    """2,000 (label, cell) pairs with cells of many magnitudes, one in 20 missing."""
    rng = random.Random(3)
    labels = [rng.randint(0, 1) for _ in range(2000)]
    return [(y, None if rng.random() < 0.05 else rng.uniform(-1e3, 1e3) * rng.random())
            for y in labels]


class TestFit:
    def test_balanced_priors(self):
        ds = labeled_dataset([["a", "a", "b", "b"]], ["categorical"], [0, 0, 1, 1])
        model = nb_fit(ds)
        assert model.priors == (0.5, 0.5)

    def test_laplace_smoothing(self):
        ds = labeled_dataset([["a", "a", "b", "b"]], ["categorical"], [0, 0, 1, 1])
        model = nb_fit(ds)
        table0 = model.likelihoods[0].tables[0]
        assert table0["a"] == (2 + 1) / (2 + 2)  # 3/4
        assert table0["b"] == (0 + 1) / (2 + 2)
        assert abs(sum(table0.values()) - 1.0) < 1e-12

    def test_variance_floor_on_constant_class(self):
        ds = labeled_dataset([[3.0, 3.0, 8.0, 9.0]], ["numeric"], [0, 0, 1, 1])
        model = nb_fit(ds)
        assert model.likelihoods[0].variances[0] == VARIANCE_FLOOR

    def test_single_class_rejected(self):
        ds = labeled_dataset([[1.0, 2.0]], ["numeric"], [0, 0])
        with pytest.raises(SingleClassTrainingError):
            nb_fit(ds)

    @settings(deadline=None)
    @example(long_column())
    @given(st.lists(st.tuples(st.integers(0, 1), st.none() | st.just(-0.0) | st.floats(-1e100, 1e100)),
                    min_size=1, max_size=30).filter(lambda pairs: {y for y, _ in pairs} == {0, 1}))
    def test_gaussian_fit_is_the_sequential_sum(self, pairs):
        # mean and variance are the left-to-right float sums of the cells,
        # squared exactly, bit for bit; a pairwise or compensated sum can
        # differ in the last bit
        labels = [y for y, _ in pairs]
        values = [v for _, v in pairs]
        lik = nb_fit(labeled_dataset([values], ["numeric"], labels)).likelihoods[0]
        for cls in (0, 1):
            fitted = (lik.means[cls], lik.variances[cls])
            assert list(map(repr, fitted)) == list(map(repr, sequential_gaussian(values, labels, cls)))

    @pytest.mark.parametrize("values", [[1e308, 1.0, 1e308, 2.0], [1e200, 1.0, -1e200, 2.0]],
                             ids=["mean", "variance"])
    def test_overflowing_statistics_name_the_column(self, values):
        # class 0's finite cells: their sum, or the sum of their squared
        # deviations, overflows float64
        ds = labeled_dataset([values], ["numeric"], [0, 1, 0, 1])
        with pytest.raises(NonFiniteStatisticError, match="'f0'"):
            nb_fit(ds)

    def test_missing_cells_excluded(self):
        ds = labeled_dataset([["a", None, "b", None]], ["categorical"], [0, 0, 1, 1])
        model = nb_fit(ds)
        # class 0 saw one 'a'; vocabulary is {a, b}
        assert model.likelihoods[0].tables[0]["a"] == (1 + 1) / (1 + 2)


def predict(model, columns):
    """nb_predict on plain-cell columns."""
    return nb_predict(model, nb_test_set(model, columns))


def hand_model(p_x0=0.9, p_x1=0.1, priors=(0.5, 0.5)):
    lik = CategoricalLikelihood(({"x": p_x0, "y": 1 - p_x0}, {"x": p_x1, "y": 1 - p_x1}))
    return NBModel(("f0",), priors, (lik,))


class TestPredict:
    def test_two_term_bayes_by_hand(self):
        (label,), (posterior_1,) = predict(hand_model(), transpose([["x"]]))
        assert label == 0
        assert abs(posterior_1 - 0.1) < 1e-12

    def test_prior_decides_when_likelihoods_equal(self):
        model = hand_model(p_x0=0.5, p_x1=0.5, priors=(0.7, 0.3))
        (label,), (posterior_1,) = predict(model, transpose([["x"]]))
        assert label == 0
        assert abs(posterior_1 - 0.3) < 1e-12

    def test_exact_tie_predicts_attack(self):
        model = hand_model(p_x0=0.5, p_x1=0.5, priors=(0.5, 0.5))
        (label,), (posterior_1,) = predict(model, transpose([["x"]]))
        assert label == 1 and posterior_1 == 0.5

    def test_cell_too_far_for_both_classes_is_a_tie(self):
        # (1e300 - mean) ** 2 overflows float64: both classes score -inf
        gauss = GaussianLikelihood(means=(0.0, 1.0), variances=(1.0, 1.0))
        model = NBModel(("f0",), (0.9, 0.1), (gauss,))
        labels, posterior_1 = predict(model, transpose([[1e300], [0.0]]))
        assert labels.tolist() == [1, 0]
        assert posterior_1[0] == 0.5

    def test_missing_value_skipped(self):
        (label,), (posterior_1,) = predict(hand_model(priors=(0.25, 0.75)), transpose([[None]]))
        assert label == 1
        assert abs(posterior_1 - 0.75) < 1e-12

    def test_unseen_token_uses_uniform_likelihood(self):
        (label,), (posterior_1,) = predict(hand_model(), transpose([["z"]]))
        # both classes get 1/|vocab|; priors tie; attack wins
        assert label == 1 and posterior_1 == 0.5

    def test_schema_mismatch(self):
        # the model's columns in another order, with one kind changed, and
        # with an extra column: each is refused, though every column is there
        train = labeled_dataset([["a", "b", "a"], [1.0, 2.0, 4.0], ["x", "y", "y"]],
                                ["categorical", "numeric", "categorical"], [0, 1, 1])
        model = nb_fit(project(train, ["f0", "f1"]))
        assert nb_predict(model, project(train, ["f0", "f1"]))[0].shape == (3,)
        retyped = labeled_dataset([["a", "b", "a"], ["1", "2", "4"]],
                                  ["categorical", "categorical"], [0, 1, 1])
        for test in (project(train, ["f1", "f0"]), retyped, train):
            with pytest.raises(SchemaMismatchError):
                nb_predict(model, test)

    def test_wrong_value_type(self):
        # numbers for the categorical feature: one row, and three rows whose
        # last holds the number; no Dataset holds them under a categorical
        # kind, and a numeric column is refused by kind
        for column in ([3.0], [np.nan, np.nan, 3.0]):
            labels = [0] * len(column)
            with pytest.raises(SchemaMismatchError):
                Dataset((AttributeSchema("f0", "categorical"),), [np.array(column)], [()], labels)
            with pytest.raises(SchemaMismatchError):
                nb_predict(hand_model(), labeled_dataset([column], ["numeric"], labels))

    def test_matches_raw_probability_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            n_features = rng.randint(1, 4)
            vocab = tuple(f"t{j}" for j in range(rng.randint(2, 3)))
            likelihoods = []
            for _ in range(n_features):
                tables = []
                for _cls in range(2):
                    raw = [rng.uniform(0.05, 1.0) for _ in vocab]
                    total = sum(raw)
                    tables.append({tok: w / total for tok, w in zip(vocab, raw)})
                likelihoods.append(CategoricalLikelihood((tables[0], tables[1])))
            p1 = rng.uniform(0.1, 0.9)
            model = NBModel(tuple(f"f{i}" for i in range(n_features)), (1 - p1, p1),
                            tuple(likelihoods))
            row = [rng.choice(vocab) for _ in range(n_features)]

            # oracle: multiply raw probabilities, no logs
            joint = [model.priors[0], model.priors[1]]
            for cls in (0, 1):
                for value, lik in zip(row, model.likelihoods):
                    joint[cls] *= lik.tables[cls][value]
            want_label = 1 if joint[1] >= joint[0] else 0
            want_posterior = joint[1] / (joint[0] + joint[1])

            (label,), (posterior_1,) = predict(model, transpose([row]))
            assert label == want_label
            assert abs(posterior_1 - want_posterior) < 1e-12


def per_row_log_posteriors(model, row):
    """Reference: the unnormalized log posteriors of one row, cell by cell."""
    logs = [math.log(model.priors[0]), math.log(model.priors[1])]
    for value, lik in zip(row, model.likelihoods):
        if value is None:
            continue
        for cls in (0, 1):
            if isinstance(lik, CategoricalLikelihood):
                logs[cls] += math.log(lik.tables[cls].get(value, 1.0 / len(lik.tables[cls])))
            else:
                mu, var = lik.means[cls], lik.variances[cls]
                logs[cls] += -0.5 * math.log(2.0 * math.pi * var) - (value - mu) ** 2 / (2.0 * var)
    return logs


class TestFitPredictEndToEnd:
    def test_batch_matches_per_row_reference(self):
        rng = random.Random(5)

        def cell(kind, label, tokens):
            if rng.random() < 0.1:
                return None
            if kind == "numeric":
                return rng.gauss(float(label), 1.5)
            return rng.choice(tokens[: 2 + label])

        kinds = ["numeric", "categorical", "numeric", "categorical"]
        labels = [i % 2 for i in range(300)]
        columns = [[cell(k, y, "abc") for y in labels] for k in kinds]
        model = nb_fit(labeled_dataset(columns, kinds, labels))
        # "z" never occurs in training
        rows = [[cell(k, rng.randint(0, 1), "abz") for k in kinds] for _ in range(500)]
        got_labels, got_posteriors = predict(model, transpose(rows))
        for row, label, posterior_1 in zip(rows, got_labels, got_posteriors):
            log0, log1 = per_row_log_posteriors(model, row)
            assert label == (1 if log1 >= log0 else 0)
            # a tolerance, not equality: numpy squares exactly where libm's
            # pow(d, 2) can be one ulp off, and np.exp is not math.exp
            assert abs(posterior_1 - 1.0 / (1.0 + math.exp(log0 - log1))) < 1e-12

    def test_gaussian_separation(self):
        rng = random.Random(2)
        values = [rng.gauss(0.0, 1.0) for _ in range(100)] + [
            rng.gauss(6.0, 1.0) for _ in range(100)
        ]
        labels = [0] * 100 + [1] * 100
        ds = labeled_dataset([values], ["numeric"], labels)
        model = nb_fit(ds)
        correct = sum(
            predict(model, transpose([row]))[0][0] == label
            for row, label in zip(transpose(cells(ds)), ds.labels)
        )
        assert correct / 200 >= 0.99

    def test_log_and_raw_space_agree_on_small_model(self):
        ds = labeled_dataset(
            [["a", "b", "a", "b", "a", "b"]], ["categorical"], [0, 0, 0, 1, 1, 1]
        )
        model = nb_fit(ds)
        for token in ("a", "b"):
            joint = [model.priors[c] * model.likelihoods[0].tables[c][token] for c in (0, 1)]
            want = 1 if joint[1] >= joint[0] else 0
            assert predict(model, transpose([[token]]))[0][0] == want
