"""Equal partitioning of records and per-partition central points.

The training rows are grouped by class (every label-0 row before every
label-1 row, each class in row order), so partitions are class-homogeneous
except at the class boundary. ``partition_index`` then maps each grouped row
to one of p contiguous partitions: the first p-1 hold n // p rows each and
the last takes the remainder. A partition's label is its majority label.

The central point of an attribute within a partition is its mode: the most
frequent non-missing value in that contiguous row slice. Numeric and
categorical attributes go through the same frequency count; numeric equality
is exact value equality, never epsilon bucketing. Among equally frequent
values the one whose first occurrence in the slice comes latest wins, so
['tcp', 'udp', 'tcp', 'udp'] resolves to ('udp', 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, Dataset, Value, group_by_label, is_missing
from .errors import TooManyPartitionsError


@dataclass(frozen=True)
class CentralPoint:
    attribute: str
    partition_index: int
    value: Value
    frequency: int


@dataclass(frozen=True)
class CentralPointsTable:
    """All central points, ordered by (attribute position, partition index),
    and the label of each partition.

    An (attribute, partition) pair is absent only when that slice of the
    column is entirely missing.
    """

    entries: tuple[CentralPoint, ...]
    p: int
    labels: tuple[int, ...]  # majority label per partition, exact ties 1 (attack)


def partition_count(n_records: int, n_attributes: int) -> int:
    """Number of equal partitions: records divided by attributes, at least 1."""
    if n_records < 1 or n_attributes < 1:
        raise ValueError("record and attribute counts must be positive")
    return max(1, n_records // n_attributes)


def partition_index(n_records: int, p: int) -> np.ndarray:
    """Every row's partition: the first p-1 get n // p rows, the last the rest."""
    if p > n_records:
        raise TooManyPartitionsError(p, n_records)
    if p < 1 or n_records < 1:
        raise ValueError("record and partition counts must be positive")
    return np.minimum(np.arange(n_records) // (n_records // p), p - 1)


def partition_modes(
    column: np.ndarray, partition: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mode of ``column`` within each partition that has a non-missing cell.

    ``partition`` gives every row's partition index. Returns three arrays in
    increasing partition order: the partition, the row where its mode first
    occurs (so the value kept is the first one seen: 0.0 and -0.0 are one
    value), and the mode's count.
    """
    rows = np.flatnonzero(~is_missing(column))
    if not rows.size:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, empty
    if column.dtype == np.float64:
        _, codes = np.unique(column[rows], return_inverse=True)
    else:
        codes = column[rows]
    part = partition[rows]
    key = part * (int(codes.max()) + 1) + codes
    # stable: every (partition, value) run lists its rows in row order
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    counts = np.diff(np.r_[starts, key.size])
    firsts = rows[order[starts]]
    groups = part[order[starts]]
    # per partition, the largest count and then the latest first occurrence
    # sort last: keep the last run of each partition
    best = np.lexsort((firsts, counts, groups))
    ranked = groups[best]
    win = best[np.r_[ranked[1:] != ranked[:-1], True]]
    return groups[win], firsts[win], counts[win]


def central_points(dataset: Dataset, p: int) -> CentralPointsTable:
    """Mode of every attribute and the majority label within every one of p
    equal partitions of the rows grouped by class."""
    partition = partition_index(dataset.n_records, p)
    dataset = group_by_label(dataset)
    ones = np.bincount(partition[dataset.labels == 1], minlength=p)
    labels = (2 * ones >= np.bincount(partition, minlength=p)).astype(int).tolist()
    entries: list[CentralPoint] = []
    for attr, column, vocab in zip(dataset.schema, dataset.columns, dataset.vocabularies):
        groups, firsts, counts = partition_modes(column, partition)
        values = column[firsts].tolist()
        if attr.kind == CATEGORICAL:
            values = [vocab[code] for code in values]
        entries.extend(
            CentralPoint(attr.name, k, value, freq)
            for k, value, freq in zip(groups.tolist(), values, counts.tolist())
        )
    return CentralPointsTable(tuple(entries), p, tuple(labels))
