import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cparm.arm import (
    Item,
    Rule,
    SweepEntry,
    Transaction,
    build_transactions,
    confidence,
    generate_rules,
    run_threshold_sweep,
    select_features,
    support,
)
from cparm.central_points import CentralPoint, CentralPointsTable, central_points
from cparm.dataset import AttributeSchema, Dataset
from cparm.errors import (
    AntecedentAbsentError,
    EmptyTransactionsError,
    LengthMismatchError,
)
from oracles import brute_force_rules, random_transactions


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
        table = CentralPointsTable(
            entries=(
                CentralPoint("a", 0, 1.0, 2), CentralPoint("b", 0, "tcp", 2),
                CentralPoint("a", 1, 2.0, 2), CentralPoint("b", 1, "udp", 2),
            ),
            p=2,
            attribute_order=("a", "b"),
        )
        result = build_transactions(table, [0, 1])
        assert result[0] == trans(("a", 1.0), ("b", "tcp"), label=0)
        assert result[1] == trans(("a", 2.0), ("b", "udp"), label=1)

    def test_missing_column_absent_from_transaction(self):
        table = CentralPointsTable(
            entries=(CentralPoint("a", 0, 1.0, 1), CentralPoint("a", 1, 1.0, 1),
                     CentralPoint("c", 0, "x", 1)),
            p=2,
            attribute_order=("a", "c"),
        )
        result = build_transactions(table, [0, 0])
        assert result[1].items == frozenset({Item("a", 1.0)})

    def test_label_length_mismatch(self):
        table = CentralPointsTable(entries=(), p=3, attribute_order=())
        with pytest.raises(LengthMismatchError):
            build_transactions(table, [0, 1])

    def test_matches_independent_regrouping(self):
        rng = random.Random(5)
        n, p = 60, 10
        columns = [[float(rng.randint(0, 2)) for _ in range(n)] for _ in range(5)]
        schema = tuple(AttributeSchema(f"a{i}", i, "numeric") for i in range(5))
        records = tuple(tuple(col[i] for col in columns) for i in range(n))
        labels = tuple(rng.randint(0, 1) for _ in range(n))
        ds = Dataset(schema, records, labels)

        part_labels = [rng.randint(0, 1) for _ in range(p)]
        got = build_transactions(central_points(ds, p), part_labels)

        # oracle: recompute modes per slice with its own counting, then regroup
        size = n // p
        for k in range(p):
            start, end = k * size, (n if k == p - 1 else (k + 1) * size)
            expected_items = set()
            for c in range(5):
                chunk = columns[c][start:end]
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
            assert got[k].label == part_labels[k]


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
        assert support(self.f1, self.f2, full) == 1.0

    def test_partial_overlap(self):
        assert support(self.f1, self.f2, self.transactions) == 0.25

    def test_no_cooccurrence(self):
        assert support(Item("a", 2.0), Item("b", "y"), self.transactions) == 0.0

    def test_empty_transactions(self):
        with pytest.raises(EmptyTransactionsError):
            support(self.f1, self.f2, [])

    def test_perfect_implication(self):
        both = [trans(("a", 1.0), ("b", "x")), trans(("a", 1.0), ("b", "x")), trans(("c", "z"))]
        assert confidence(self.f1, self.f2, both) == 1.0

    def test_half_confidence(self):
        assert confidence(self.f1, self.f2, self.transactions) == 0.5

    def test_absent_antecedent(self):
        with pytest.raises(AntecedentAbsentError):
            confidence(Item("q", 9.0), self.f2, self.transactions)


class TestGenerateRules:
    def test_fully_correlated_pair(self):
        transactions = [trans(("a", 1.0), ("b", 2.0)) for _ in range(2)]
        rules = generate_rules(transactions, 0.5, 0.5)
        assert len(rules) == 2
        for r in rules:
            assert r.support == 1.0 and r.confidence == 1.0 and r.importance == 1.0
        assert {(r.antecedent.attribute, r.consequent.attribute) for r in rules} == {
            ("a", "b"), ("b", "a"),
        }

    def test_unattainable_threshold(self):
        transactions = [trans(("a", 1.0), ("b", 2.0)) for _ in range(2)]
        assert generate_rules(transactions, 1.01, 0.5) == []

    def test_empty_transactions(self):
        with pytest.raises(EmptyTransactionsError):
            generate_rules([], 0.4, 0.4)

    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(42)
        for _ in range(20):
            transactions = random_transactions(rng)
            for threshold in (0.4, 0.6, 0.8):
                got = generate_rules(transactions, threshold, threshold)
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
            rules = generate_rules(transactions, 0.2, 0.2)
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
            transactions = random_transactions(rng)
            loose = {(r.antecedent, r.consequent) for r in generate_rules(transactions, 0.2, 0.2)}
            tight = {(r.antecedent, r.consequent) for r in generate_rules(transactions, 0.5, 0.5)}
            assert tight <= loose

    def test_order_independent_of_input_order(self):
        rng = random.Random(13)
        transactions = random_transactions(rng, max_transactions=15)
        shuffled = transactions[:]
        rng.shuffle(shuffled)
        assert generate_rules(transactions, 0.3, 0.3) == generate_rules(shuffled, 0.3, 0.3)

    @settings(deadline=None)
    @given(mining_cases())
    def test_matches_oracle_with_pruned_items(self, case):
        transactions, (threshold,) = case
        got = [
            (r.antecedent, r.consequent, r.support, r.confidence, r.importance, r.label)
            for r in generate_rules(transactions, threshold, threshold)
        ]
        assert got == brute_force_rules(transactions, threshold, threshold)


class TestSelectFeatures:
    def test_forced_scoring(self):
        transactions = [
            trans(("a", 1.0), ("b", 1.0), label=1),
            trans(("a", 1.0), ("b", 1.0), label=1),
            trans(("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0), label=1),
        ]
        rules = generate_rules(transactions, 0.3, 0.3)
        ranking = select_features(rules, 2, 1)
        assert ranking.attribute_names() == ("a", "b")
        assert ranking.entries[0].best_importance == 1.0

    def test_empty_rules(self):
        ranking = select_features([], 5, 0)
        assert ranking.entries == ()

    def test_two_rule_example(self):
        def rule(a1, a2, importance):
            return Rule(Item(a1, 1.0), Item(a2, 1.0), importance, importance,
                        importance, label=1)

        rules = [rule("a", "b", 0.9), rule("c", "d", 0.5)]
        ranking = select_features(rules, 2, 1)
        # a and b both score 0.9; truncation to 2 keeps them, name-ordered
        assert ranking.attribute_names() == ("a", "b")
        assert [e.best_importance for e in ranking.entries] == [0.9, 0.9]

    def test_truncation_and_name_tiebreak(self):
        transactions = [trans(("z", 1.0), ("m", 1.0), ("k", 1.0), label=0)] * 4
        rules = generate_rules(transactions, 0.5, 0.5)
        ranking = select_features(rules, 2, 0)
        # all importances 1.0; names break the tie ascending
        assert ranking.attribute_names() == ("k", "m")


class TestThresholdSweep:
    def test_identical_rankings_when_saturated(self):
        transactions = [trans(("a", 1.0), ("b", 2.0))] * 2
        sweep = run_threshold_sweep(transactions, 2)
        rankings = [e.by_class[0].attribute_names() for e in sweep.entries]
        assert rankings[0] == rankings[1] == rankings[2] == ("a", "b")

    def test_border_pair_present_only_at_low_threshold(self):
        transactions = [
            trans(("a", 1.0), ("b", 1.0)),
            trans(("a", 1.0), ("b", 1.0)),
            trans(("a", 1.0), ("b", 2.0)),
            trans(("a", 1.0), ("b", 3.0)),
        ]
        # (a=1 => b=1) has sup = conf = 0.5 by direct count: present at 0.4 only
        sweep = run_threshold_sweep(transactions, 4)
        per_threshold = {
            e.threshold: e.by_class[0].attribute_names() for e in sweep.entries
        }
        assert "b" in per_threshold[0.4] and "a" in per_threshold[0.4]
        assert per_threshold[0.6] == ()
        assert per_threshold[0.8] == ()

    def test_three_entries_regardless(self):
        transactions = [trans(("a", 1.0), ("b", 1.0))] * 3
        sweep = run_threshold_sweep(transactions, 2)
        assert [e.threshold for e in sweep.entries] == [0.4, 0.6, 0.8]

    def test_merged_union_truncates_by_importance(self):
        transactions = (
            [trans(("a", 1.0), ("b", 1.0), label=0)] * 5
            + [trans(("c", 2.0), ("d", 2.0), label=1)] * 4
            + [trans(("e", 3.0), label=1)]
        )
        sweep = run_threshold_sweep(transactions, 2)
        # class 0 ranks a,b; class 1 ranks c,d; the union keeps the best 2
        merged = sweep.merged_names()
        assert len(merged) == 2
        assert set(merged) == {"a", "b"}  # higher support, hence importance

    def test_empty_transactions(self):
        with pytest.raises(EmptyTransactionsError):
            run_threshold_sweep([], 3)

    @settings(deadline=None)
    @given(mining_cases(max_thresholds=4), st.integers(1, 6))
    def test_matches_mining_each_threshold(self, case, limit):
        transactions, thresholds = case
        sweep = run_threshold_sweep(transactions, limit, thresholds)
        expected = []
        for t in sorted(thresholds):
            rules = generate_rules(transactions, t, t)
            expected.append(
                SweepEntry(t, (select_features(rules, limit, 0), select_features(rules, limit, 1)))
            )
        assert sweep.entries == tuple(expected)
        lowest = min(thresholds)
        assert sweep.rules == tuple(generate_rules(transactions, lowest, lowest))
