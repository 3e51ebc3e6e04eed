"""Pairwise association-rule mining over central-point transactions.

Each partition becomes one transaction whose items are its central points
(attribute=value pairs). The transactions are held as a (p, m) matrix of item
codes, one column per attribute, with -1 where a partition has no central
point; ``Transaction`` objects are built only when a row is asked for. Rules
are ordered pairs of items with distinct attributes, counted one attribute
pair at a time over the items that pass minsup; a rule survives
when support >= minsup and confidence >= minconf, and is ranked by
importance = (support + confidence) / 2. A ranking is a tuple of
(attribute, importance) pairs, best first, with names breaking ties.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .central_points import CentralPointsTable
from .dataset import Value


class Item(NamedTuple):
    attribute: str
    value: Value


@dataclass(frozen=True, slots=True)
class Transaction:
    items: frozenset[Item]
    label: int

    def __post_init__(self):
        if len({i.attribute for i in self.items}) != len(self.items):
            raise ValueError("transaction holds two items for one attribute")


@dataclass(frozen=True)
class Rule:
    antecedent: Item
    consequent: Item
    support: float
    confidence: float
    importance: float
    label: int


Ranking = tuple[tuple[str, float], ...]  # (attribute, importance), best first


@dataclass(frozen=True)
class SweepEntry:
    threshold: float
    by_class: tuple[Ranking, Ranking]  # (class 0, class 1)


@dataclass(frozen=True)
class SweepResult:
    entries: tuple[SweepEntry, ...]
    merged: Ranking  # the selection fed to the decision engines
    rules: tuple[Rule, ...]  # every rule passing the lowest threshold, sorted


def _value_sort_key(v: Value) -> tuple[int, float, str]:
    # total order across numeric and categorical payloads
    if isinstance(v, str):
        return (1, 0.0, v)
    return (0, float(v), "")


def rule_sort_key(rule: Rule):
    """Deterministic rule order: importance desc, support desc, then fields."""
    return (
        -rule.importance,
        -rule.support,
        rule.antecedent.attribute,
        rule.consequent.attribute,
        _value_sort_key(rule.antecedent.value),
        _value_sort_key(rule.consequent.value),
    )


@dataclass(frozen=True, eq=False)
class Transactions(Sequence[Transaction]):
    """One transaction per row of a (transactions, attributes) code matrix.

    ``codes[t, j]`` is the code of transaction t's item for attribute j, an
    index into ``values[j]``, or -1 when t holds no item for j. Equal items
    share one code. Indexing builds row i's ``Transaction``.
    """

    attributes: tuple[str, ...]
    values: tuple[tuple[Value, ...], ...]  # each attribute's item values, by code
    codes: np.ndarray  # (n, len(attributes)) int
    labels: np.ndarray  # (n,) int

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int) -> Transaction:
        items = zip(self.attributes, self.values, self.codes[i].tolist())
        return Transaction(
            frozenset(Item(a, values[c]) for a, values, c in items if c >= 0),
            int(self.labels[i]),
        )


def build_transactions(table: CentralPointsTable) -> Transactions:
    """One transaction per partition, items taken from its central points and
    labelled with the partition's label.

    Each attribute's modes are coded by one ``np.unique``: values that compare
    equal (0.0 and -0.0) are one item, spelled as its earliest partition's.
    """
    codes = np.full((table.p, len(table.attributes)), -1, dtype=np.int64)
    values = []
    for j, attr in enumerate(table.attributes):
        _, first, inverse = np.unique(attr.modes, return_index=True, return_inverse=True)
        codes[attr.partitions, j] = inverse
        values.append(tuple(attr.values(first)))
    return Transactions(
        tuple(a.name for a in table.attributes), tuple(values), codes, np.array(table.labels)
    )


def generate_rules(transactions: Transactions, minsup: float, minconf: float) -> list[Rule]:
    """All passing ordered-pair rules, sorted by rule_sort_key.

    A rule's label is the majority label of the transactions containing both
    of its items, ties resolved toward 1 (attack).
    """
    n = len(transactions)
    labels = transactions.labels

    # A pair is never more frequent than either of its items (Agrawal &
    # Srikant, VLDB 1994), so an item with count / n < minsup cannot be in a
    # passing rule: its cells become -1 before pair counting, and an
    # attribute left with no item takes no part.
    kept = []  # (attribute, values, item counts, codes with pruned items -1)
    for attribute, values, codes in zip(
        transactions.attributes, transactions.values, transactions.codes.T
    ):
        counts = np.bincount(codes[codes >= 0], minlength=len(values))
        frequent = counts / n >= minsup
        if frequent.any():
            # an absent cell reads frequent[-1] but stays -1 either way
            kept.append((attribute, values, counts, np.where(frequent[codes], codes, -1)))

    # Zaki's vertical counting (IEEE TKDE 2000) one attribute pair at a time:
    # the rows holding a kept item of both attributes, keyed by the item pair,
    # give each pair's count and its attack-labelled count.
    rules = []
    for j, (attribute1, values1, counts1, codes1) in enumerate(kept):
        for attribute2, values2, counts2, codes2 in kept[j + 1:]:
            rows = (codes1 >= 0) & (codes2 >= 0)
            keys = codes1[rows] * len(values2) + codes2[rows]
            pairs, inverse, together = np.unique(keys, return_inverse=True, return_counts=True)
            attacks = np.bincount(inverse[labels[rows] == 1], minlength=len(pairs))
            frequent = together / n >= minsup
            for key, pair, pair_attacks in zip(
                pairs[frequent].tolist(), together[frequent].tolist(), attacks[frequent].tolist()
            ):
                code1, code2 = divmod(key, len(values2))
                item1, item2 = Item(attribute1, values1[code1]), Item(attribute2, values2[code2])
                sup = pair / n
                label = 1 if 2 * pair_attacks >= pair else 0
                for antecedent, consequent, count in (
                    (item1, item2, int(counts1[code1])), (item2, item1, int(counts2[code2]))
                ):
                    conf = pair / count
                    if conf >= minconf:
                        rules.append(
                            Rule(
                                antecedent=antecedent,
                                consequent=consequent,
                                support=sup,
                                confidence=conf,
                                importance=(sup + conf) / 2,
                                label=label,
                            )
                        )
    rules.sort(key=rule_sort_key)
    return rules


def _top(scores: Iterable[tuple[str, float]], limit: int) -> Ranking:
    """The ``limit`` best (attribute, score) pairs, best first, names breaking
    ties. An attribute keeps its first score unless a later one is strictly
    higher."""
    best: dict[str, float] = {}
    for attr, score in scores:
        if attr not in best or score > best[attr]:
            best[attr] = score
    return tuple(sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:limit])


def select_features(rules: Sequence[Rule], limit: int, label: int) -> Ranking:
    """Top attributes for one class by best importance of any rule naming them."""
    return _top(
        (
            (attr, rule.importance)
            for rule in rules
            if rule.label == label
            for attr in (rule.antecedent.attribute, rule.consequent.attribute)
        ),
        limit,
    )


def run_threshold_sweep(
    transactions: Transactions,
    limit: int,
    thresholds: Sequence[float] = (0.4, 0.6, 0.8),
) -> SweepResult:
    """Rank at each threshold (minsup = minconf), lowest first, mining the
    code matrix of ``build_transactions`` (a ``Transaction`` list will not do).

    Rules are mined once, at the lowest threshold. Support and confidence do
    not depend on the threshold, so each higher threshold's rules are that
    sorted list filtered, still in rule_sort_key order.

    The merged ranking feeding the decision engines is the union of the two
    per-class rankings at the lowest threshold, scored by each attribute's
    best importance across classes and truncated to ``limit``.
    """
    thresholds = sorted(thresholds)
    lowest_rules = generate_rules(transactions, thresholds[0], thresholds[0])
    entries = []
    for t in thresholds:
        rules = [r for r in lowest_rules if r.support >= t and r.confidence >= t]
        entries.append(
            SweepEntry(t, (select_features(rules, limit, 0), select_features(rules, limit, 1)))
        )

    merged = _top((pair for ranking in entries[0].by_class for pair in ranking), limit)
    return SweepResult(tuple(entries), merged, tuple(lowest_rules))
