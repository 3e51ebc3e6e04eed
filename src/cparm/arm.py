"""Pairwise association-rule mining over central-point transactions.

Each partition becomes one transaction whose items are its central points
(attribute=value pairs). Rules are ordered pairs of items with distinct
attributes; a rule survives when support >= minsup and confidence >= minconf,
and is ranked by importance = (support + confidence) / 2. A ranking is a
tuple of (attribute, importance) pairs, best first, with names breaking ties.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, NamedTuple, Sequence

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


def build_transactions(table: CentralPointsTable) -> list[Transaction]:
    """One transaction per partition, items taken from its central points and
    labelled with the partition's label. Equal items are one shared object."""
    per_partition: list[list[Item]] = [[] for _ in range(table.p)]
    shared: dict[Item, Item] = {}
    for cp in table.entries:
        item = Item(cp.attribute, cp.value)
        per_partition[cp.partition_index].append(shared.setdefault(item, item))
    return [
        Transaction(frozenset(items), label)
        for items, label in zip(per_partition, table.labels)
    ]


def generate_rules(
    transactions: Sequence[Transaction], minsup: float, minconf: float
) -> list[Rule]:
    """All passing ordered-pair rules, sorted by rule_sort_key.

    A rule's label is the majority label of the transactions containing both
    of its items, ties resolved toward 1 (attack).
    """
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
