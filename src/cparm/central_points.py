"""Equal partitioning of records and per-partition central points.

The training rows are grouped by class (every label-0 row before every
label-1 row, each class in row order), so partitions are class-homogeneous
except at the class boundary. ``partition_index`` then maps each grouped row
to one of p contiguous partitions: the first p-1 hold n // p rows each and
the last takes the remainder. A partition's label is its mode label.

The central point of an attribute within a partition is its mode: the most
frequent non-missing value in that contiguous row slice. Numeric and
categorical attributes go through the same frequency count; numeric equality
is exact value equality, never epsilon bucketing. Among equally frequent
values the one whose first occurrence in the slice comes latest wins, so
['tcp', 'udp', 'tcp', 'udp'] resolves to ('udp', 2).

The table keeps each attribute's central points as the three arrays
``partition_modes`` returns, the mode values still typed as the column is;
``CentralPoint`` objects are spelled from them only when ``entries`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, Value, is_missing


@dataclass(frozen=True, slots=True)
class CentralPoint:
    attribute: str
    partition_index: int
    value: Value
    frequency: int


class AttributeModes(NamedTuple):
    """One attribute's central points: the partitions whose slice of the
    column has a non-missing cell, in increasing order, each one's mode and
    the mode's count. ``modes`` holds the column's own typed values (float64
    numbers, or int32 codes into ``vocabulary``)."""

    name: str
    partitions: np.ndarray
    modes: np.ndarray
    counts: np.ndarray
    vocabulary: tuple[str, ...]  # () for a numeric attribute

    def values(self, at: slice | np.ndarray = slice(None)) -> list[Value]:
        """The modes at ``at`` (all of them by default) as cell values, each
        spelled as its own partition's mode, so -0.0 stays -0.0."""
        values = self.modes[at].tolist()
        if self.modes.dtype == np.float64:
            return values
        return [self.vocabulary[code] for code in values]


@dataclass(frozen=True, eq=False)
class CentralPointsTable:
    """The central points of every attribute, in attribute order, and the
    label of each of the p partitions.

    An (attribute, partition) pair is absent only when that slice of the
    column is entirely missing.
    """

    attributes: tuple[AttributeModes, ...]
    p: int
    labels: tuple[int, ...]  # majority label per partition, exact ties 1 (attack)

    @property
    def entries(self) -> tuple[CentralPoint, ...]:
        """Every central point as an object, ordered by (attribute position,
        partition index)."""
        return tuple(
            CentralPoint(a.name, k, value, freq)
            for a in self.attributes
            for k, value, freq in zip(a.partitions.tolist(), a.values(), a.counts.tolist())
        )


def partition_count(n_records: int, n_attributes: int) -> int:
    """Number of equal partitions: records divided by attributes, at least 1."""
    if n_records < 1 or n_attributes < 1:
        raise ValueError("record and attribute counts must be positive")
    return max(1, n_records // n_attributes)


def partition_index(n_records: int, p: int) -> np.ndarray:
    """Every row's partition: the first p-1 get n // p rows, the last the rest."""
    return np.minimum(np.arange(n_records) // _partition_size(n_records, p), p - 1)


def _partition_size(n_records: int, p: int) -> int:
    """n // p, the rows of each partition but the last."""
    if not 1 <= p <= n_records:
        raise ValueError(f"cannot split {n_records} records into {p} partitions")
    return n_records // p


def partition_modes(column: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mode of ``column`` within each of its p equal partitions (as laid
    out by ``partition_index``) that has a non-missing cell.

    Returns three arrays in increasing partition order: the partition, the
    row where its mode first occurs (so the value kept is the first one seen:
    0.0 and -0.0 are one value), and the mode's count.
    """
    size = _partition_size(len(column), p)
    cut = (p - 1) * size
    # the first p-1 partitions as the rows of one block, the last on its own
    head = _row_modes(column[:cut].reshape(p - 1, size))
    tail = _row_modes(column[cut:].reshape(1, -1))
    return (
        np.r_[head[0], tail[0] + (p - 1)],
        np.r_[head[0] * size + head[1], tail[1] + cut],
        np.r_[head[2], tail[2]],
    )


def _row_modes(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column of the mode's first occurrence, count) for every row of
    ``block`` that has a non-missing cell."""
    width = block.shape[1]
    # stable: each run of equal values lists its cells in column order, so a
    # run's first cell is the value's first occurrence
    order = np.argsort(block, axis=1, kind="stable")
    ordered = np.take_along_axis(block, order, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    runs = np.flatnonzero(starts)
    counts = np.diff(np.r_[runs, ordered.size])
    kept = ~is_missing(ordered.ravel()[runs])
    runs, counts = runs[kept], counts[kept]
    rows = runs // width
    if not rows.size:
        return rows, rows, rows
    # per row, the largest count and then the latest first occurrence
    score = counts * width + order.ravel()[runs]
    bounds = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    best = np.maximum.reduceat(score, bounds)
    return rows[bounds], best % width, best // width


def central_points(dataset: Dataset, p: int) -> CentralPointsTable:
    """Mode of every attribute and of the label within every one of p
    equal partitions of the rows grouped by class."""
    # every label-0 row, then every label-1 row, each class in row order;
    # one column at a time is gathered in this order
    grouped = np.argsort(dataset.labels, kind="stable")
    labels = dataset.labels[grouped]
    _, modal, _ = partition_modes(labels, p)  # 1 comes after 0, so a tie is 1
    attributes = []
    for attr, column, vocab in zip(dataset.schema, dataset.columns, dataset.vocabularies):
        column = column[grouped]
        groups, firsts, counts = partition_modes(column, p)
        attributes.append(AttributeModes(attr.name, groups, column[firsts], counts, vocab))
    return CentralPointsTable(tuple(attributes), p, tuple(labels[modal].tolist()))
