"""Independent reference implementations used to cross-check the package.

Nothing here imports pipeline internals beyond the public data types; the
arithmetic is redone from scratch so the tests and the implementation can
only agree by computing the same thing.
"""

from __future__ import annotations

import math
from collections import Counter

from cparm.arm import Item, Transaction


def transpose(table):
    """Rows to columns or columns to rows: the Dataset stores columns."""
    return tuple(zip(*table))


def brute_force_rules(transactions, minsup, minconf):
    """Exhaustive ordered-pair rule enumeration with independent counting.

    Returns tuples (antecedent, consequent, support, confidence, importance,
    label) sorted by the documented rule order.
    """
    n = len(transactions)
    containing: dict[Item, set[int]] = {}
    attacks = {i for i, t in enumerate(transactions) if t.label == 1}
    for i, t in enumerate(transactions):
        for item in t.items:
            containing.setdefault(item, set()).add(i)

    rules = []
    for f1, where1 in containing.items():
        for f2, where2 in containing.items():
            if f1.attribute == f2.attribute:
                continue
            both = where1 & where2
            if not both:
                continue
            sup = len(both) / n
            conf = len(both) / len(where1)
            if sup < minsup or conf < minconf:
                continue
            n_attack = len(both & attacks)
            label = 1 if 2 * n_attack >= len(both) else 0
            rules.append((f1, f2, sup, conf, (sup + conf) / 2, label))

    def value_key(v):
        if isinstance(v, str):
            return (1, 0.0, v)
        return (0, float(v), "")

    rules.sort(
        key=lambda r: (-r[4], -r[2], r[0].attribute, r[1].attribute,
                       value_key(r[0].value), value_key(r[1].value))
    )
    return rules


def latest_first_occurrence_mode(values):
    """(value, count) of the most frequent non-missing value, or None.

    Ties go to the value whose first occurrence comes latest, found by an
    explicit scan instead of relying on any container's ordering.
    """
    first_index = {}
    for i, v in enumerate(values):
        if v is not None and v not in first_index:
            first_index[v] = i
    if not first_index:
        return None
    counts = {v: sum(1 for u in values if u is not None and u == v) for v in first_index}
    winner = max(first_index, key=lambda v: (counts[v], first_index[v]))
    return winner, counts[winner]


def typed_text(token, kind):
    """The cell a CSV token becomes under a column kind, for tokens that are
    either empty, the repr of a finite float, or start with a letter."""
    if token == "":
        return None
    if kind == "categorical":
        return token
    try:
        x = float(token)
    except ValueError:
        return None
    return x if math.isfinite(x) and repr(x) == token else None


def random_transactions(rng, max_transactions=25, max_attributes=6, max_values=4):
    """A random transaction list for oracle comparisons."""
    n_trans = rng.randint(1, max_transactions)
    n_attrs = rng.randint(1, max_attributes)
    attrs = [f"a{i}" for i in range(n_attrs)]
    out = []
    for _ in range(n_trans):
        items = []
        for a in attrs:
            if rng.random() < 0.8:  # sometimes absent, like an all-missing slice
                items.append(Item(a, f"v{rng.randint(1, max_values)}"))
        out.append(Transaction(frozenset(items), rng.randint(0, 1)))
    return out


def histogram_mutual_information(values, labels, bins=10):
    """MI (bits) between a feature column and binary labels.

    Categoricals and low-cardinality numerics use their distinct values;
    continuous numerics are bucketed into equal-width bins.
    """
    distinct = set(values)
    if all(isinstance(v, float) for v in distinct) and len(distinct) > bins:
        lo, hi = min(distinct), max(distinct)
        width = (hi - lo) or 1.0
        keyed = [min(int((v - lo) / width * bins), bins - 1) for v in values]
    else:
        keyed = list(values)

    n = len(keyed)
    joint = Counter(zip(keyed, labels))
    px = Counter(keyed)
    py = Counter(labels)
    mi = 0.0
    for (x, y), c in joint.items():
        p_xy = c / n
        mi += p_xy * math.log2(p_xy / ((px[x] / n) * (py[y] / n)))
    return mi


def mutual_information_ranking(dataset):
    """Features sorted by MI with the label, descending."""
    scored = []
    for attr in dataset.schema:
        col = list(dataset.columns[attr.index])
        scored.append((histogram_mutual_information(col, list(dataset.labels)), attr.name))
    scored.sort(key=lambda s: (-s[0], s[1]))
    return [name for _, name in scored]
