import random
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from cparm.metrics import ConfusionMatrix, compute_metrics, confusion


class TestConfusion:
    def test_one_of_each_cell(self):
        cm = confusion([1, 0, 1, 0], [1, 0, 0, 1])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 1, 1)

    def test_perfect_classifier(self):
        cm = confusion([1, 1, 0], [1, 1, 0])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 0)

    def test_against_vectorized_tally(self):
        rng = random.Random(6)
        preds = [rng.randint(0, 1) for _ in range(1000)]
        truth = [rng.randint(0, 1) for _ in range(1000)]
        cm = confusion(preds, truth)
        p, t = np.array(preds), np.array(truth)
        assert cm.tp == int(((p == 1) & (t == 1)).sum())
        assert cm.tn == int(((p == 0) & (t == 0)).sum())
        assert cm.fp == int(((p == 1) & (t == 0)).sum())
        assert cm.fn == int(((p == 0) & (t == 1)).sum())

    def test_arrays_and_lists_count_alike(self):
        preds, truth = [1, 0, 1, 1, 0], [1, 1, 0, 1, 0]
        from_arrays = confusion(np.array(preds, dtype=np.int64), np.array(truth))
        assert from_arrays == confusion(preds, truth) == ConfusionMatrix(tp=2, tn=1, fp=1, fn=1)
        assert all(type(v) is int for v in (from_arrays.tp, from_arrays.tn, from_arrays.fp, from_arrays.fn))


class TestComputeMetrics:
    def test_hand_arithmetic_fixture(self):
        report = compute_metrics(ConfusionMatrix(tp=50, tn=40, fp=5, fn=5))
        assert abs(report.accuracy - 0.90) < 1e-15
        assert abs(report.fpr - 1 / 9) < 1e-15
        assert abs(report.fnr - 1 / 11) < 1e-15
        assert abs(report.precision - 10 / 11) < 1e-15
        assert abs(report.recall - 10 / 11) < 1e-15
        assert abs(report.far - (1 / 9 + 1 / 11) / 2) < 1e-15

    def test_zero_denominators_are_undefined(self):
        report = compute_metrics(ConfusionMatrix(tp=0, tn=10, fp=0, fn=0))
        assert report.accuracy == 1.0
        assert report.fpr == 0.0
        assert report.fnr is None
        assert report.far is None
        assert report.precision is None
        assert report.recall is None

    def test_perfect_classifier_identity(self):
        for n in (1, 7, 500):
            report = compute_metrics(ConfusionMatrix(tp=n, tn=n, fp=0, fn=0))
            assert report.accuracy == 1.0
            assert report.far == 0.0

    def test_far_is_exact_mean_of_rates(self):
        rng = random.Random(12)
        for _ in range(300):
            cm = ConfusionMatrix(*(rng.randint(0, 40) for _ in range(4)))
            if cm.total == 0:
                continue
            report = compute_metrics(cm)
            if report.fpr is not None and report.fnr is not None:
                assert report.far == (report.fpr + report.fnr) / 2

    def test_accuracy_complements_error_mass(self):
        rng = random.Random(13)
        for _ in range(300):
            cm = ConfusionMatrix(*(rng.randint(0, 40) for _ in range(4)))
            if cm.total == 0:
                continue
            report = compute_metrics(cm)
            # exact in rational arithmetic; float forms agree to addition rounding
            assert Fraction(cm.tp + cm.tn, cm.total) + Fraction(cm.fp + cm.fn, cm.total) == 1
            assert abs(report.accuracy + (cm.fp + cm.fn) / cm.total - 1.0) < 1e-15

    def test_label_swap_symmetry(self):
        rng = random.Random(14)
        for _ in range(100):
            preds = [rng.randint(0, 1) for _ in range(50)]
            truth = [rng.randint(0, 1) for _ in range(50)]
            cm = confusion(preds, truth)
            flipped = confusion([1 - p for p in preds], [1 - t for t in truth])
            assert (flipped.tp, flipped.tn) == (cm.tn, cm.tp)
            assert (flipped.fp, flipped.fn) == (cm.fn, cm.fp)
            assert compute_metrics(flipped).accuracy == compute_metrics(cm).accuracy

    def test_defined_metrics_in_unit_interval(self):
        rng = random.Random(15)
        for _ in range(300):
            cm = ConfusionMatrix(*(rng.randint(0, 25) for _ in range(4)))
            if cm.total == 0:
                continue
            report = compute_metrics(cm)
            for value in asdict(report).values():
                if value is not None:
                    assert 0.0 <= value <= 1.0
