"""Equal partitioning of records and per-partition central points.

The central point of an attribute within a partition is its mode: the most
frequent non-missing value in that contiguous row slice. Numeric and
categorical attributes go through the same frequency count; numeric equality
is exact value equality, never epsilon bucketing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .dataset import Dataset, Value
from .errors import TooManyPartitionsError


@dataclass(frozen=True)
class PartitionPlan:
    """p half-open row ranges covering [0, n); the last absorbs the remainder."""

    p: int
    boundaries: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CentralPoint:
    attribute: str
    partition_index: int
    value: Value
    frequency: int


@dataclass(frozen=True)
class CentralPointsTable:
    """All central points, ordered by (attribute position, partition index).

    An (attribute, partition) pair is absent only when that slice of the
    column is entirely missing.
    """

    entries: tuple[CentralPoint, ...]
    p: int
    attribute_order: tuple[str, ...]


def partition_count(n_records: int, n_attributes: int) -> int:
    """Number of equal partitions: records divided by attributes, at least 1."""
    if n_records < 1 or n_attributes < 1:
        raise ValueError("record and attribute counts must be positive")
    return max(1, n_records // n_attributes)


def make_plan(n_records: int, p: int) -> PartitionPlan:
    """Split [0, n) into p ranges; the first p-1 have length n // p."""
    if p > n_records:
        raise TooManyPartitionsError(p, n_records)
    if p < 1 or n_records < 1:
        raise ValueError("record and partition counts must be positive")
    size = n_records // p
    boundaries = [(i * size, (i + 1) * size) for i in range(p - 1)]
    boundaries.append(((p - 1) * size, n_records))
    return PartitionPlan(p, tuple(boundaries))


def mode_of(values: Sequence[Value]) -> tuple[Value, int] | None:
    """Most frequent non-missing value and its count, or None if no such value.

    Tie rule: among equally frequent values, take the one whose first
    occurrence in the slice comes latest (the most recently introduced
    value). So ['tcp', 'udp', 'tcp', 'udp'] resolves to ('udp', 2).
    """
    counts = Counter(values)
    counts.pop(None, None)
    if not counts:
        return None
    best = max(counts.values())
    # Counter keeps first-occurrence order, so the last of the most frequent
    # values is the one whose first occurrence comes latest
    winner = [v for v, c in counts.items() if c == best][-1]
    return winner, best


def central_points(dataset: Dataset, p: int) -> CentralPointsTable:
    """Mode of every attribute within every partition of an equal-split plan."""
    plan = make_plan(dataset.n_records, p)
    entries: list[CentralPoint] = []
    for attr, col in zip(dataset.schema, dataset.columns):
        for k, (start, end) in enumerate(plan.boundaries):
            found = mode_of(col[start:end])
            if found is None:
                continue
            value, freq = found
            entries.append(CentralPoint(attr.name, k, value, freq))
    return CentralPointsTable(tuple(entries), p, dataset.attribute_names())
