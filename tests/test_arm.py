import csv
import math
import random
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cparm.arm import (
    Item,
    Rule,
    SweepEntry,
    Transaction,
    Transactions,
    build_transactions,
    generate_rules,
    run_threshold_sweep,
    select_features,
)
from cparm.central_points import central_points
from cparm.dataset import AttributeSchema
from cparm.pipeline import _dump_centres
from oracles import (
    brute_force_rules,
    coded_transactions,
    dataset,
    random_transactions,
    transactions_reference,
)


def trans(*attr_value_pairs, label=0):
    return Transaction(frozenset(Item(a, v) for a, v in attr_value_pairs), label)


# numeric and categorical payloads, mixed even within one attribute
VALUES = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from(["tcp", "udp", "icmp"]))


@st.composite
def mining_cases(draw, max_thresholds=1):
    """(transactions, thresholds in (0, 1]) with an item held by one transaction.

    That item's support is 1/n, so most thresholds prune it. Thresholds are
    drawn both freely and from the items' exact supports, the boundary where
    ``count / n >= minsup`` decides.
    """
    rows = draw(st.lists(
        st.tuples(st.dictionaries(st.sampled_from("abcde"), VALUES), st.integers(0, 1)),
        min_size=2, max_size=30,
    ))
    rare_row = draw(st.integers(0, len(rows) - 1))
    transactions = [
        Transaction(
            frozenset([Item(a, v) for a, v in items.items()]
                      + ([Item("rare", "once")] if k == rare_row else [])),
            label,
        )
        for k, (items, label) in enumerate(rows)
    ]
    n = len(transactions)
    supports = sorted({sum(item in t.items for t in transactions) / n
                       for t in transactions for item in t.items})
    threshold = st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True), st.sampled_from(supports)
    )
    thresholds = draw(st.lists(threshold, min_size=1, max_size=max_thresholds, unique=True))
    return transactions, thresholds


class TestBuildTransactions:
    def test_direct_regrouping(self):
        schema = (AttributeSchema("a", "numeric"), AttributeSchema("b", "categorical"))
        ds = dataset(schema, [[1.0, 1.0, 2.0, 2.0], ["tcp", "tcp", "udp", "udp"]], (0, 0, 1, 1))
        result = build_transactions(central_points(ds, 2))
        assert len(result) == 2
        assert result[0] == trans(("a", 1.0), ("b", "tcp"), label=0)
        assert result[1] == trans(("a", 2.0), ("b", "udp"), label=1)

    def test_missing_column_absent_from_transaction(self):
        schema = (AttributeSchema("a", "numeric"), AttributeSchema("c", "categorical"))
        ds = dataset(schema, [[1.0, 1.0], ["x", None]], (0, 0))
        result = build_transactions(central_points(ds, 2))
        assert result[1].items == frozenset({Item("a", 1.0)})
        assert result.codes.tolist() == [[0, 0], [0, -1]]

    def test_equal_zeros_are_one_item_spelled_as_the_earliest(self):
        ds = dataset((AttributeSchema("a", "numeric"),), [[-0.0, 0.0, 0.0, 1.0]], (0,) * 4)
        result = build_transactions(central_points(ds, 4))
        assert result.codes[:, 0].tolist() == [0, 0, 0, 1]
        assert repr([v for t in result for v in (i.value for i in t.items)]) == (
            "[-0.0, -0.0, -0.0, 1.0]"
        )

    def test_matches_independent_regrouping(self):
        rng = random.Random(5)
        n, p = 60, 10
        columns = [[float(rng.randint(0, 2)) for _ in range(n)] for _ in range(5)]
        schema = tuple(AttributeSchema(f"a{i}", "numeric") for i in range(5))
        labels = tuple(rng.randint(0, 1) for _ in range(n))
        ds = dataset(schema, columns, labels)

        got = build_transactions(central_points(ds, p))

        # oracle: group the rows by label (label-0 rows first, each class in
        # row order), recompute modes and majority labels per slice with its
        # own counting, then regroup
        order = [i for i in range(n) if labels[i] == 0] + [i for i in range(n) if labels[i] == 1]
        grouped = [[col[i] for i in order] for col in columns]
        grouped_labels = [labels[i] for i in order]
        size = n // p
        for k in range(p):
            start, end = k * size, (n if k == p - 1 else (k + 1) * size)
            expected_items = set()
            for c in range(5):
                chunk = grouped[c][start:end]
                counts = {}
                for v in chunk:
                    counts[v] = counts.get(v, 0) + 1
                best = max(counts.values())
                winner, pos_best = None, -1
                seen = set()
                for pos, v in enumerate(chunk):
                    if v not in seen:
                        seen.add(v)
                        if counts[v] == best and pos > pos_best:
                            winner, pos_best = v, pos
                expected_items.add(Item(f"a{c}", winner))
            assert got[k].items == frozenset(expected_items)
            ones = grouped_labels[start:end].count(1)
            assert got[k].label == (1 if 2 * ones >= end - start else 0)


class TestTransactions:
    def test_coded_gives_back_each_transaction(self):
        rng = random.Random(3)
        for _ in range(10):
            transactions = random_transactions(rng)
            coded = coded_transactions(transactions)
            assert len(coded) == len(transactions)
            assert list(coded) == transactions

    def test_coded_attributes_come_in_name_order(self):
        coded = coded_transactions([trans(("b", "x"), ("a", 1.0)), trans(("c", "y"), label=1)])
        assert coded.attributes == ("a", "b", "c")
        assert coded.codes.tolist() == [[0, 0, -1], [-1, -1, 0]]
        assert coded.labels.tolist() == [0, 1]

    def test_coded_spells_an_item_as_its_first_transaction(self):
        coded = coded_transactions([trans(("a", -0.0)), trans(("a", 0.0)), trans(("a", 1.0))])
        assert coded.codes[:, 0].tolist() == [0, 0, 1]
        assert repr(coded.values) == "((-0.0, 1.0),)"

    def test_empty(self):
        assert generate_rules(coded_transactions([]), 0.5, 0.5) == []


# few values, so items recur across partitions; NaN is a missing cell, and
# 0.0 beside -0.0 is one item spelled as its earliest partition's mode
MATRIX_NUMBERS = st.sampled_from([math.nan, 0.0, -0.0, 1.0, 2.5])
MATRIX_TOKENS = st.sampled_from([None, "tcp", "udp"])


@st.composite
def mined_datasets(draw):
    """(dataset, p, threshold): up to 4 numeric or categorical columns, mixed
    labels, and a threshold drawn freely or at an exact support k / p."""
    n = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]), min_size=1, max_size=4))
    columns = [
        draw(st.lists(MATRIX_NUMBERS if k == "numeric" else MATRIX_TOKENS, min_size=n, max_size=n))
        for k in kinds
    ]
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    schema = tuple(AttributeSchema(f"a{i}", k) for i, k in enumerate(kinds))
    p = draw(st.integers(1, n))
    threshold = draw(
        st.sampled_from([k / p for k in range(1, p + 1)])
        | st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    )
    return dataset(schema, columns, labels), p, threshold


def spelled_items(transaction):
    return sorted((i.attribute, repr(i.value)) for i in transaction.items), transaction.label


def centres_dump_reference(table, path):
    """The centres dump written one central-point object at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["attribute", "partition", "value", "frequency"])
        for cp in table.entries:
            value = repr(cp.value) if isinstance(cp.value, float) else cp.value
            writer.writerow([cp.attribute, cp.partition, value, cp.frequency])


class TestCodeMatrix:
    """The code matrix against the central-point objects it replaced."""

    @settings(deadline=None, max_examples=300)
    @given(mined_datasets())
    def test_matches_the_object_layer(self, tmp_path_factory, drawn):
        ds, p, threshold = drawn
        table = central_points(ds, p)
        reference = transactions_reference(table)
        coded = build_transactions(table)
        assert list(map(spelled_items, coded)) == list(map(spelled_items, reference))

        got = [
            (r.antecedent.attribute, repr(r.antecedent.value), r.consequent.attribute,
             repr(r.consequent.value), r.support, r.confidence, r.importance, r.label)
            for r in generate_rules(coded, threshold, threshold)
        ]
        want = [
            (f1.attribute, repr(f1.value), f2.attribute, repr(f2.value), *rest)
            for f1, f2, *rest in brute_force_rules(reference, threshold, threshold)
        ]
        assert got == want

        folder = tmp_path_factory.mktemp("centres")
        _dump_centres(table, folder / "new.csv")
        centres_dump_reference(table, folder / "old.csv")
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


def mined_rule(f1, f2, transactions):
    """The rule f1 => f2 as generate_rules mines it at near-zero thresholds,
    or None when the two items never occur together."""
    found = [
        r for r in generate_rules(coded_transactions(transactions), 1e-9, 1e-9)
        if (r.antecedent, r.consequent) == (f1, f2)
    ]
    return found[0] if found else None


class TestSupportConfidence:
    def setup_method(self):
        self.f1 = Item("a", 1.0)
        self.f2 = Item("b", "x")
        self.transactions = [
            trans(("a", 1.0), ("b", "x")),
            trans(("a", 1.0), ("b", "y")),
            trans(("a", 2.0), ("b", "x")),
            trans(("c", "z")),
        ]

    def test_saturated_support(self):
        full = [trans(("a", 1.0), ("b", "x")) for _ in range(4)]
        assert mined_rule(self.f1, self.f2, full).support == 1.0

    def test_partial_overlap(self):
        assert mined_rule(self.f1, self.f2, self.transactions).support == 0.25

    def test_no_cooccurrence(self):
        assert mined_rule(Item("a", 2.0), Item("b", "y"), self.transactions) is None

    def test_perfect_implication(self):
        both = [trans(("a", 1.0), ("b", "x")), trans(("a", 1.0), ("b", "x")), trans(("c", "z"))]
        assert mined_rule(self.f1, self.f2, both).confidence == 1.0

    def test_half_confidence(self):
        assert mined_rule(self.f1, self.f2, self.transactions).confidence == 0.5


class TestGenerateRules:
    def test_fully_correlated_pair(self):
        transactions = [trans(("a", 1.0), ("b", 2.0)) for _ in range(2)]
        rules = generate_rules(coded_transactions(transactions), 0.5, 0.5)
        assert len(rules) == 2
        for r in rules:
            assert r.support == 1.0 and r.confidence == 1.0 and r.importance == 1.0
        assert {(r.antecedent.attribute, r.consequent.attribute) for r in rules} == {
            ("a", "b"), ("b", "a"),
        }

    def test_memory_follows_the_transactions_not_the_threshold(self):
        # two attributes whose 5,000 values are all distinct: at a threshold
        # every item passes, 10,000 items make 10,000 rules, and counting
        # them holds no table of items by items or by transactions
        n = 5000
        values = tuple(map(float, range(n)))
        codes = np.repeat(np.arange(n)[:, None], 2, axis=1)
        transactions = Transactions(("a", "b"), (values, values), codes, np.arange(n) % 2)
        tracemalloc.start()
        try:
            rules = generate_rules(transactions, 1e-9, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rules) == 2 * n
        assert {(r.antecedent.value, r.consequent.value, r.label) for r in rules} == {
            (v, v, int(v) % 2) for v in values
        }
        assert peak < 32 * 2**20

    def test_unattainable_threshold(self):
        transactions = [trans(("a", 1.0), ("b", 2.0)) for _ in range(2)]
        assert generate_rules(coded_transactions(transactions), 1.01, 0.5) == []

    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(42)
        for _ in range(20):
            transactions = random_transactions(rng)
            for threshold in (0.4, 0.6, 0.8):
                got = generate_rules(coded_transactions(transactions), threshold, threshold)
                want = brute_force_rules(transactions, threshold, threshold)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert (g.antecedent, g.consequent, g.label) == (w[0], w[1], w[5])
                    assert g.support == w[2]
                    assert g.confidence == w[3]
                    assert g.importance == w[4]

    def test_rule_invariants_on_random_sets(self):
        rng = random.Random(9)
        for _ in range(10):
            transactions = random_transactions(rng)
            rules = generate_rules(coded_transactions(transactions), 0.2, 0.2)
            by_pair = {(r.antecedent, r.consequent): r for r in rules}
            for r in rules:
                assert r.support <= r.confidence
                assert min(r.support, r.confidence) <= r.importance <= max(r.support, r.confidence)
                assert r.importance == (r.support + r.confidence) / 2
                mirrored = by_pair.get((r.consequent, r.antecedent))
                if mirrored is not None:
                    assert mirrored.support == r.support  # numerator symmetry

    def test_monotone_filtering(self):
        rng = random.Random(31)
        for _ in range(10):
            transactions = coded_transactions(random_transactions(rng))
            loose = {(r.antecedent, r.consequent) for r in generate_rules(transactions, 0.2, 0.2)}
            tight = {(r.antecedent, r.consequent) for r in generate_rules(transactions, 0.5, 0.5)}
            assert tight <= loose

    def test_order_independent_of_input_order(self):
        rng = random.Random(13)
        transactions = random_transactions(rng, max_transactions=15)
        shuffled = transactions[:]
        rng.shuffle(shuffled)
        assert (generate_rules(coded_transactions(transactions), 0.3, 0.3)
                == generate_rules(coded_transactions(shuffled), 0.3, 0.3))

    @settings(deadline=None)
    @given(mining_cases())
    def test_matches_oracle_with_pruned_items(self, case):
        transactions, (threshold,) = case
        got = [
            (r.antecedent, r.consequent, r.support, r.confidence, r.importance, r.label)
            for r in generate_rules(coded_transactions(transactions), threshold, threshold)
        ]
        assert got == brute_force_rules(transactions, threshold, threshold)


class TestSelectFeatures:
    def test_forced_scoring(self):
        transactions = [
            trans(("a", 1.0), ("b", 1.0), label=1),
            trans(("a", 1.0), ("b", 1.0), label=1),
            trans(("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0), label=1),
        ]
        rules = generate_rules(coded_transactions(transactions), 0.3, 0.3)
        ranking = select_features(rules, 2, 1)
        assert [name for name, _ in ranking] == ["a", "b"]
        assert ranking[0][1] == 1.0

    def test_empty_rules(self):
        assert select_features([], 5, 0) == ()

    def test_two_rule_example(self):
        def rule(a1, a2, importance):
            return Rule(Item(a1, 1.0), Item(a2, 1.0), importance, importance,
                        importance, label=1)

        rules = [rule("a", "b", 0.9), rule("c", "d", 0.5)]
        ranking = select_features(rules, 2, 1)
        # a and b both score 0.9; truncation to 2 keeps them, name-ordered
        assert ranking == (("a", 0.9), ("b", 0.9))

    def test_truncation_and_name_tiebreak(self):
        transactions = [trans(("z", 1.0), ("m", 1.0), ("k", 1.0), label=0)] * 4
        rules = generate_rules(coded_transactions(transactions), 0.5, 0.5)
        ranking = select_features(rules, 2, 0)
        # all importances 1.0; names break the tie ascending
        assert ranking == (("k", 1.0), ("m", 1.0))


class TestThresholdSweep:
    def test_identical_rankings_when_saturated(self):
        transactions = [trans(("a", 1.0), ("b", 2.0))] * 2
        sweep = run_threshold_sweep(coded_transactions(transactions), 2, (0.4, 0.6, 0.8))
        rankings = [e.by_class[0] for e in sweep.entries]
        assert rankings[0] == rankings[1] == rankings[2] == (("a", 1.0), ("b", 1.0))

    def test_border_pair_present_only_at_low_threshold(self):
        transactions = [
            trans(("a", 1.0), ("b", 1.0)),
            trans(("a", 1.0), ("b", 1.0)),
            trans(("a", 1.0), ("b", 2.0)),
            trans(("a", 1.0), ("b", 3.0)),
        ]
        # (a=1 => b=1) has sup = conf = 0.5 by direct count: present at 0.4 only
        sweep = run_threshold_sweep(coded_transactions(transactions), 4, (0.4, 0.6, 0.8))
        per_threshold = {
            e.threshold: [name for name, _ in e.by_class[0]] for e in sweep.entries
        }
        assert "b" in per_threshold[0.4] and "a" in per_threshold[0.4]
        assert per_threshold[0.6] == []
        assert per_threshold[0.8] == []

    def test_three_entries_regardless(self):
        transactions = [trans(("a", 1.0), ("b", 1.0))] * 3
        sweep = run_threshold_sweep(coded_transactions(transactions), 2, (0.4, 0.6, 0.8))
        assert [e.threshold for e in sweep.entries] == [0.4, 0.6, 0.8]

    def test_merged_union_truncates_by_importance(self):
        transactions = (
            [trans(("a", 1.0), ("b", 1.0), label=0)] * 5
            + [trans(("c", 2.0), ("d", 2.0), label=1)] * 4
            + [trans(("e", 3.0), label=1)]
        )
        sweep = run_threshold_sweep(coded_transactions(transactions), 2, (0.4, 0.6, 0.8))
        # class 0 ranks a,b; class 1 ranks c,d; the union keeps the best 2
        assert [name for name, _ in sweep.merged] == ["a", "b"]  # higher support, hence importance

    @settings(deadline=None)
    @given(mining_cases(max_thresholds=4), st.integers(1, 6))
    def test_matches_mining_each_threshold(self, case, limit):
        transactions, thresholds = case
        sweep = run_threshold_sweep(coded_transactions(transactions), limit, thresholds)
        expected = []
        for t in sorted(thresholds):
            rules = generate_rules(coded_transactions(transactions), t, t)
            expected.append(
                SweepEntry(t, (select_features(rules, limit, 0), select_features(rules, limit, 1)))
            )
        assert sweep.entries == tuple(expected)
        lowest = min(thresholds)
        rules = generate_rules(coded_transactions(transactions), lowest, lowest)
        assert sweep.rules == tuple(rules)
