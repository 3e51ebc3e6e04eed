"""Pairwise association-rule mining over central-point transactions.

Each partition becomes one transaction whose items are its central points
(attribute=value pairs). Rules are ordered pairs of items with distinct
attributes; a rule survives when support >= minsup and confidence >= minconf,
and is ranked by importance = (support + confidence) / 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple, Sequence

from .central_points import CentralPointsTable
from .dataset import Value
from .errors import (
    AntecedentAbsentError,
    EmptyTransactionsError,
    LengthMismatchError,
)


class Item(NamedTuple):
    attribute: str
    value: Value


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RankedFeature:
    attribute: str
    best_importance: float
    supporting_rule: Rule


@dataclass(frozen=True)
class FeatureRanking:
    """Top attributes for one class, scored by their best rule importance."""

    entries: tuple[RankedFeature, ...]

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(e.attribute for e in self.entries)


@dataclass(frozen=True)
class SweepEntry:
    threshold: float
    by_class: tuple[FeatureRanking, FeatureRanking]  # (class 0, class 1)


@dataclass(frozen=True)
class SweepResult:
    entries: tuple[SweepEntry, ...]
    merged: tuple[tuple[str, float], ...]  # downstream (attribute, importance)
    rules: tuple[Rule, ...]  # every rule passing the lowest threshold, sorted

    def merged_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.merged)


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


def build_transactions(
    table: CentralPointsTable, labels_per_partition: Sequence[int]
) -> list[Transaction]:
    """One transaction per partition, items taken from its central points."""
    if len(labels_per_partition) != table.p:
        raise LengthMismatchError(
            f"{len(labels_per_partition)} labels for {table.p} partitions"
        )
    per_partition: list[list[Item]] = [[] for _ in range(table.p)]
    for cp in table.entries:
        per_partition[cp.partition_index].append(Item(cp.attribute, cp.value))
    return [
        Transaction(frozenset(items), labels_per_partition[k])
        for k, items in enumerate(per_partition)
    ]


def support(f1: Item, f2: Item, transactions: Sequence[Transaction]) -> float:
    """Fraction of all transactions containing both items."""
    if not transactions:
        raise EmptyTransactionsError("support over zero transactions")
    both = sum(1 for t in transactions if f1 in t.items and f2 in t.items)
    return both / len(transactions)


def confidence(f1: Item, f2: Item, transactions: Sequence[Transaction]) -> float:
    """Fraction of transactions containing f1 that also contain f2."""
    antecedent = sum(1 for t in transactions if f1 in t.items)
    if antecedent == 0:
        raise AntecedentAbsentError(f1)
    both = sum(1 for t in transactions if f1 in t.items and f2 in t.items)
    return both / antecedent


def generate_rules(
    transactions: Sequence[Transaction], minsup: float, minconf: float
) -> list[Rule]:
    """All passing ordered-pair rules, sorted by rule_sort_key.

    A rule's label is the majority label of the transactions containing both
    of its items, ties resolved toward 1 (attack).
    """
    if not transactions:
        raise EmptyTransactionsError("cannot mine rules from zero transactions")
    n = len(transactions)

    # A pair is never more frequent than either of its items (Agrawal &
    # Srikant, VLDB 1994), so an item with count / n < minsup cannot be in a
    # passing rule: drop it before pair counting. The survivors are interned
    # to integers so pair counting touches only small tuples.
    item_counts = Counter(item for t in transactions for item in t.items)
    item_ids: dict[Item, int] = {}
    for item, count in item_counts.items():
        if count / n >= minsup:
            item_ids[item] = len(item_ids)
    items_by_id = list(item_ids)

    pair_counts: Counter[tuple[int, int]] = Counter()
    pair_attacks: Counter[tuple[int, int]] = Counter()
    for t in transactions:
        pairs = permutations([item_ids[i] for i in t.items if i in item_ids], 2)
        if t.label == 1:
            pairs = list(pairs)
            pair_attacks.update(pairs)
        pair_counts.update(pairs)

    rules = []
    for (a, c), both in pair_counts.items():
        sup = both / n
        if sup < minsup:
            continue
        conf = both / item_counts[items_by_id[a]]
        if conf < minconf:
            continue
        label = 1 if 2 * pair_attacks[(a, c)] >= both else 0
        rules.append(
            Rule(
                antecedent=items_by_id[a],
                consequent=items_by_id[c],
                support=sup,
                confidence=conf,
                importance=(sup + conf) / 2,
                label=label,
            )
        )
    rules.sort(key=rule_sort_key)
    return rules


def select_features(rules: Sequence[Rule], limit: int, label: int) -> FeatureRanking:
    """Top attributes for one class by best importance of any rule naming them."""
    best: dict[str, tuple[float, Rule]] = {}
    for rule in rules:
        if rule.label != label:
            continue
        for attr in (rule.antecedent.attribute, rule.consequent.attribute):
            held = best.get(attr)
            if held is None or rule.importance > held[0]:
                best[attr] = (rule.importance, rule)
    ranked = sorted(best.items(), key=lambda kv: (-kv[1][0], kv[0]))[:limit]
    return FeatureRanking(
        tuple(RankedFeature(attr, imp, rule) for attr, (imp, rule) in ranked)
    )


def run_threshold_sweep(
    transactions: Sequence[Transaction],
    limit: int,
    thresholds: Sequence[float] = (0.4, 0.6, 0.8),
) -> SweepResult:
    """Rank at each threshold (minsup = minconf), lowest first.

    Rules are mined once, at the lowest threshold. Support and confidence do
    not depend on the threshold, so each higher threshold's rules are that
    sorted list filtered, still in rule_sort_key order.

    The merged ranking feeding the decision engines is the union of the two
    per-class rankings at the lowest threshold, scored by each attribute's
    best importance across classes and truncated to ``limit``.
    """
    if not transactions:
        raise EmptyTransactionsError("cannot sweep zero transactions")
    thresholds = sorted(thresholds)
    lowest_rules = generate_rules(transactions, thresholds[0], thresholds[0])
    entries = []
    for t in thresholds:
        rules = [r for r in lowest_rules if r.support >= t and r.confidence >= t]
        entries.append(
            SweepEntry(t, (select_features(rules, limit, 0), select_features(rules, limit, 1)))
        )

    lowest = entries[0]
    pooled: dict[str, float] = {}
    for ranking in lowest.by_class:
        for e in ranking.entries:
            if e.attribute not in pooled or e.best_importance > pooled[e.attribute]:
                pooled[e.attribute] = e.best_importance
    merged = tuple(
        sorted(pooled.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    )
    return SweepResult(tuple(entries), merged, tuple(lowest_rules))
