"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``
to see them stream.
"""

import json
import random
import time
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from cparm.arm import generate_rules
from cparm.central_points import central_points, partition_count
from cparm.cli import main
from cparm.dataset import AttributeSchema, synth_dataset
from cparm.engines import em
from cparm.engines.em import em_fit, em_predict, responsibilities
from cparm.engines.naive_bayes import CategoricalLikelihood, NBModel, nb_predict
from cparm.metrics import ConfusionMatrix, compute_metrics
from cparm.pipeline import PipelineConfig, SourceSynthetic, dumps_json, run_pipeline
from oracles import (
    brute_force_rules,
    coded_transactions,
    dataset,
    identity_matrix,
    mode_of,
    mutual_information_ranking,
    nb_test_set,
    nll_gradient,
    nll_loss,
    numeric_dataset,
    random_transactions,
    transpose,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


def test_c01_partition_count_cross_check():
    with criterion(1, "partition count: 125973 records / 41 attributes = 3072, < 1 ms"):
        start = time.perf_counter()
        result = partition_count(125973, 41)
        elapsed = time.perf_counter() - start
        assert result == 3072
        assert elapsed < 0.001


def test_c02_mode_fixtures():
    with criterion(2, "mode fixtures: numeric (1, count 4) and tied categorical 'udp'"):
        for values, kind, want in (
            ([1, 2, 1, 1, 3.2, 1], "numeric", (1, 4)),
            (["tcp", "udp", "tcp", "udp"], "categorical", ("udp", 2)),
        ):
            assert mode_of(values) == want
            # the same fixture through cparm: one column, one partition
            ds = dataset((AttributeSchema("a", kind),), [values], (0,) * len(values))
            (entry,) = central_points(ds, 1).entries
            assert (entry.value, entry.frequency) == want


def test_c03_rule_miner_matches_oracle():
    with criterion(3, "rule miner equals exhaustive oracle on 200 random sets, < 10 s"):
        rng = random.Random(1234)
        start = time.perf_counter()
        for _ in range(200):
            transactions = random_transactions(rng)
            for threshold in (0.4, 0.6, 0.8):
                got = generate_rules(coded_transactions(transactions), threshold, threshold)
                want = brute_force_rules(transactions, threshold, threshold)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.antecedent == w[0]
                    assert g.consequent == w[1]
                    assert abs(g.support - w[2]) < 1e-12
                    assert abs(g.confidence - w[3]) < 1e-12
                    assert g.label == w[5]
        assert time.perf_counter() - start < 10.0


def test_c04_metric_identities():
    with criterion(4, "metric identities on 1000 random confusion matrices + fixture"):
        rng = random.Random(99)
        checked = 0
        while checked < 1000:
            cm = ConfusionMatrix(*(rng.randint(0, 50) for _ in range(4)))
            if cm.total == 0:
                continue
            checked += 1
            report = compute_metrics(cm)
            if report.fpr is not None and report.fnr is not None:
                assert report.far == (report.fpr + report.fnr) / 2  # bitwise
            assert Fraction(cm.tp + cm.tn, cm.total) + Fraction(cm.fp + cm.fn, cm.total) == 1
            assert abs(report.accuracy + (cm.fp + cm.fn) / cm.total - 1.0) < 1e-15
            for value in asdict(report).values():
                if value is not None:
                    assert 0.0 <= value <= 1.0
        fixture = compute_metrics(ConfusionMatrix(tp=50, tn=40, fp=5, fn=5))
        assert abs(fixture.accuracy - 0.90) < 1e-15
        assert abs(fixture.fpr - 1 / 9) < 1e-15
        assert abs(fixture.fnr - 1 / 11) < 1e-15
        assert abs(fixture.precision - 10 / 11) < 1e-15
        assert abs(fixture.recall - 10 / 11) < 1e-15
        assert abs(fixture.far - (1 / 9 + 1 / 11) / 2) < 1e-15


def test_c05_lr_gradient_check():
    with criterion(5, "logistic gradient vs central differences at 20 points, rel < 1e-5"):
        rng = np.random.default_rng(7)
        step = 1e-6
        for _ in range(20):
            n, width = int(rng.integers(4, 50)), int(rng.integers(1, 7))
            x = rng.normal(size=(n, width))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(scale=0.8, size=width)
            b = float(rng.normal(scale=0.8))
            l2 = float(rng.uniform(0.0, 0.05))
            grad_w, grad_b = nll_gradient(w, b, x, y, l2)
            numeric = np.empty(width + 1)
            for j in range(width):
                d = np.zeros(width)
                d[j] = step
                numeric[j] = (nll_loss(w + d, b, x, y, l2) - nll_loss(w - d, b, x, y, l2)) / (2 * step)
            numeric[width] = (nll_loss(w, b + step, x, y, l2) - nll_loss(w, b - step, x, y, l2)) / (2 * step)
            analytic = np.append(grad_w, grad_b)
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-5


def _alternating(x):
    """The rows ``x`` labelled 0, 1, 0, ...: EM fits without its labels."""
    return identity_matrix(x, np.arange(x.shape[0]) % 2)


def test_c06_em_guarantees(monkeypatch):
    with criterion(6, "EM: monotone trace, unit responsibility sums, blob recovery"):
        rng = np.random.default_rng(55)
        with monkeypatch.context() as short:  # 2 restarts of at most 60 iterations
            short.setattr(em, "RESTARTS", 2)
            short.setattr(em, "MAX_ITERATIONS", 60)
            for seed in range(50):
                x = rng.normal(size=(40, 2)) * rng.uniform(0.5, 3.0) + rng.normal(size=2)
                model = em_fit(_alternating(x), seed)
                trace = np.array(model.ll_trace)
                assert np.all(np.diff(trace) >= -1e-9)
                resp = responsibilities(model, x)
                assert np.all(np.abs(resp.sum(axis=1) - 1.0) < 1e-12)

        blob_rng = np.random.default_rng(2024)
        x = np.vstack(
            [blob_rng.normal(-5.0, 0.5, size=(100, 1)), blob_rng.normal(5.0, 0.5, size=(100, 1))]
        )
        labels = np.array([0] * 100 + [1] * 100)
        model = em_fit(identity_matrix(x, labels), 1)
        means = sorted(float(m[0]) for m in model.means)
        assert abs(means[0] + 5.0) < 0.3 and abs(means[1] - 5.0) < 0.3
        for w in model.weights:
            assert abs(float(w) - 0.5) < 0.1
        preds, _ = em_predict(model, numeric_dataset(x))
        assert float((preds == labels).mean()) >= 0.95


def test_c07_nb_matches_raw_probability_oracle():
    with criterion(7, "NB log-space prediction equals raw-probability oracle, 100 cases"):
        rng = random.Random(404)
        for _ in range(100):
            n_features = rng.randint(1, 4)
            vocab = tuple(f"t{j}" for j in range(rng.randint(2, 3)))
            likelihoods = []
            for _ in range(n_features):
                tables = []
                for _cls in range(2):
                    raw = [rng.uniform(0.02, 1.0) for _ in vocab]
                    total = sum(raw)
                    tables.append({tok: v / total for tok, v in zip(vocab, raw)})
                likelihoods.append(CategoricalLikelihood((tables[0], tables[1])))
            p1 = rng.uniform(0.05, 0.95)
            model = NBModel(tuple(f"f{i}" for i in range(n_features)), (1 - p1, p1),
                            tuple(likelihoods))
            row = [rng.choice(vocab) for _ in range(n_features)]
            joint = [model.priors[0], model.priors[1]]
            for cls in (0, 1):
                for value, lik in zip(row, model.likelihoods):
                    joint[cls] *= lik.tables[cls][value]
            (label,), (posterior_1,) = nb_predict(model, nb_test_set(model, transpose([row])))
            assert label == (1 if joint[1] >= joint[0] else 0)
            assert abs(posterior_1 - joint[1] / (joint[0] + joint[1])) < 1e-12


def test_c08_planted_recovery_over_seeds():
    with criterion(8, "pipeline recovers the 4 planted features on >= 19/20 seeds, < 30 s"):
        start = time.perf_counter()
        successes = 0
        for seed in range(20):
            _, manifest = synth_dataset(2000, 16, 4, seed)
            report = run_pipeline(
                PipelineConfig(source=SourceSynthetic(2000, 16, 4), num_features=4,
                               engines=("lr",), seed=seed)
            )
            selected = {name for name, _ in report.selected_features}
            full, _ = synth_dataset(2000, 16, 4, seed)
            mi_top4 = set(mutual_information_ranking(full)[:4])
            if selected == set(manifest.signal_features) and selected == mi_top4:
                successes += 1
        elapsed = time.perf_counter() - start
        assert successes >= 19, f"only {successes}/20 seeds recovered the planted features"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_c09_run_determinism(tmp_path):
    with criterion(9, "two identical CLI runs emit byte-identical reports modulo timings"):
        csv_path = tmp_path / "d.csv"
        assert main(["synth", "--out", str(csv_path), "--records", "800", "--noise", "6",
                     "--signal", "2", "--seed", "12"]) == 0
        report_path = tmp_path / "report.json"
        argv = ["run", "--input", str(csv_path), "--num-features", "2",
                "--engines", "em,nb,lr", "--seed", "12", "--report", str(report_path)]
        raw, parsed = [], []
        for _ in range(2):
            assert main(argv) == 0
            raw.append(report_path.read_bytes())
            parsed.append(json.loads(raw[-1]))
        # bytes before the timings block and from "version" onward must match
        assert raw[0].split(b'"timings_ms"')[0] == raw[1].split(b'"timings_ms"')[0]
        assert raw[0].split(b'"version"')[1] == raw[1].split(b'"version"')[1]
        for p in parsed:
            del p["timings_ms"]
        assert dumps_json(parsed[0]) == dumps_json(parsed[1])


def test_c10_performance_budget():
    with criterion(10, "50,000 x 40 synthetic pipeline < 60 s, central points < 10 s"):
        start = time.perf_counter()
        report = run_pipeline(
            PipelineConfig(source=SourceSynthetic(50_000, 36, 4), num_features=11, seed=3)
        )
        total = time.perf_counter() - start
        print("stage timings (ms):")
        for stage, ms in report.timings_ms.items():
            print(f"    {stage:>16s}  {ms:10.1f}")
        assert report.timings_ms["central_points"] < 10_000
        assert total < 60.0, f"pipeline took {total:.1f}s"
