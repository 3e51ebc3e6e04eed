"""Feature encoding for the numeric engines (logistic regression, EM).

Categoricals are one-hot over the training vocabulary (unseen test tokens
encode as an all-zero block); numerics are standardized with training mean
and standard deviation. Missing cells are imputed with the training column
mode before encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..central_points import partition_modes
from ..dataset import CATEGORICAL, NUMERIC, Dataset, Value, require_schema
from ..errors import NonFiniteStatisticError


@dataclass(frozen=True)
class ColumnSpec:
    attribute: str
    kind: str
    categories: tuple[str, ...] = ()       # categorical only, sorted
    mean: float = 0.0                      # numeric only
    std: float = 1.0                       # numeric only
    impute: Value = None                   # training-column mode

    @property
    def names(self) -> tuple[str, ...]:
        """Encoded column names: the attribute, or ``attribute=token`` per category."""
        if self.kind == CATEGORICAL:
            return tuple(f"{self.attribute}={tok}" for tok in self.categories)
        return (self.attribute,)


@dataclass(frozen=True)
class FeatureEncoder:
    """Fitted on training data once, then reusable on any dataset with the
    training set's columns; encoders with equal columns are equal."""

    columns: tuple[ColumnSpec, ...]

    def transform(self, dataset: Dataset) -> np.ndarray:
        """Encode every row, (n, width) float64; the dataset's columns must be
        the fitted ones, with the same names and kinds in the same order."""
        require_schema(dataset, [(c.attribute, c.kind) for c in self.columns])
        out = np.zeros((dataset.n_records, sum(len(c.names) for c in self.columns)))
        offset = 0
        for spec, column, vocab in zip(self.columns, dataset.columns, dataset.vocabularies):
            if spec.kind == NUMERIC:
                with np.errstate(over="ignore"):  # a cell past float64 once standardized is +-inf
                    out[:, offset] = (_filled(column, spec.impute) - spec.mean) / spec.std
            else:
                position = {tok: j for j, tok in enumerate(spec.categories)}
                # each code's one-hot position; the last entry serves code -1
                # (missing), and -1 marks a token without a position (unseen)
                lookup = np.array(
                    [position.get(tok, -1) for tok in vocab] + [position.get(spec.impute, -1)],
                    dtype=np.intp,
                )
                hot = lookup[column]
                seen = np.flatnonzero(hot >= 0)
                out[seen, offset + hot[seen]] = 1.0
            offset += len(spec.names)
        return out


@dataclass(frozen=True)
class FeatureMatrix:
    """The encoded training set as its row groups: ``distinct[inverse]`` is
    ``encoder.transform`` of it, row for row, grouped by ``distinct_rows``.
    The labels play no part in the grouping."""

    encoder: FeatureEncoder
    distinct: np.ndarray                   # (groups, width) float64, in distinct_rows' order
    inverse: np.ndarray                    # (n,) each row's group
    labels: np.ndarray                     # (n,) int

    @property
    def width(self) -> int:
        return int(self.distinct.shape[1])


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse): the rows grouped by equal content, so that
    ``rows[first][inverse]`` is ``rows``.

    Rows are equal when every cell has the same float bit pattern, so 0.0
    and -0.0 stay apart. One stable ``np.lexsort`` over the rows' int64 bit
    patterns (the last column the most significant key) puts equal rows
    next to each other, earliest first, and a group starts where a sorted
    row differs from the one before. The groups come in that sorted order,
    and ``first[g]`` is the earliest row of group g.
    """
    keys = np.ascontiguousarray(rows, dtype=np.float64).view(np.int64).T  # one per column
    order = np.lexsort(keys)
    starts = np.ones(order.size, dtype=bool)
    # a difference of two int64 is 0 only between equal values, even where it wraps
    starts[1:] = np.any([np.diff(key[order]) != 0 for key in keys], axis=0)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _filled(column: np.ndarray, impute: float) -> np.ndarray:
    """A numeric column with its missing (NaN) cells replaced by ``impute``."""
    x = column.copy()
    x[np.isnan(x)] = impute
    return x


def encode(train: Dataset) -> tuple[FeatureMatrix, FeatureEncoder]:
    """Fit an encoder on every column of the training set, in order, and
    return the training set's row groups under it, with the encoder."""
    specs: list[ColumnSpec] = []
    for attr, column, vocab in zip(train.schema, train.columns, train.vocabularies):
        # the column's mode, with the central points' tie rule
        _, first, _ = partition_modes(column, 1)
        if attr.kind == NUMERIC:
            impute = column[first[0]].item() if first.size else 0.0
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                vals = _filled(column, impute)
                mean = float(vals.mean())
                std = float(vals.std())
            if not (math.isfinite(mean) and math.isfinite(std)):
                raise NonFiniteStatisticError(attr.name)
            if std == 0.0:
                std = 1.0  # constant column: center only
            specs.append(ColumnSpec(attr.name, NUMERIC, mean=mean, std=std, impute=impute))
        else:
            # the tokens the column holds; missing cells take the mode, one of
            # them, or "" when every cell is missing
            used = np.flatnonzero(np.bincount(column[column >= 0], minlength=len(vocab)))
            tokens = tuple(vocab[j] for j in used.tolist()) or ("",)
            impute = vocab[column[first[0]]] if first.size else ""
            specs.append(ColumnSpec(attr.name, CATEGORICAL, categories=tokens, impute=impute))
    encoder = FeatureEncoder(tuple(specs))
    rows = encoder.transform(train)
    first, inverse = distinct_rows(rows)
    return FeatureMatrix(encoder, rows[first], inverse, train.labels), encoder
