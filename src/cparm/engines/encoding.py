"""Feature encoding for the numeric engines (logistic regression, EM).

Categoricals are one-hot over the training vocabulary (unseen test tokens
encode as an all-zero block); numerics are standardized with training mean
and standard deviation. Missing cells are imputed with the training column
mode before encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..central_points import mode_of
from ..dataset import CATEGORICAL, NUMERIC, Dataset, Value
from ..errors import UnknownFeatureError


@dataclass(frozen=True)
class ColumnSpec:
    attribute: str
    kind: str
    categories: tuple[str, ...] = ()       # categorical only, sorted
    mean: float = 0.0                      # numeric only
    std: float = 1.0                       # numeric only
    impute: Value = None                   # training-column mode

    @property
    def width(self) -> int:
        return len(self.categories) if self.kind == CATEGORICAL else 1


@dataclass(frozen=True)
class FeatureMatrix:
    columns: tuple[ColumnSpec, ...]
    rows: np.ndarray                       # (n, encoded width) float64
    labels: np.ndarray | None = None       # (n,) int, absent for unlabeled use

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def width(self) -> int:
        return int(self.rows.shape[1])

    def unlabeled(self) -> "FeatureMatrix":
        return FeatureMatrix(self.columns, self.rows, None)


class FeatureEncoder:
    """Fitted on training data once, then reusable on any conforming dataset."""

    def __init__(self, columns: tuple[ColumnSpec, ...]):
        self.columns = columns

    def transform(self, dataset: Dataset) -> FeatureMatrix:
        by_name = {a.name: a.index for a in dataset.schema}
        missing = [c.attribute for c in self.columns if c.attribute not in by_name]
        if missing:
            raise UnknownFeatureError(missing[0])
        n = dataset.n_records
        out = np.zeros((n, sum(c.width for c in self.columns)), dtype=np.float64)
        offset = 0
        for spec in self.columns:
            column = dataset.columns[by_name[spec.attribute]]
            if spec.kind == NUMERIC:
                out[:, offset] = (_filled(column, spec.impute) - spec.mean) / spec.std
            else:
                lookup = {tok: j for j, tok in enumerate(spec.categories)}
                lookup[None] = lookup.get(spec.impute, -1)
                codes = np.array([lookup.get(v, -1) for v in column], dtype=np.intp)
                seen = np.flatnonzero(codes >= 0)
                out[seen, offset + codes[seen]] = 1.0
            offset += spec.width
        labels = np.asarray(dataset.labels, dtype=np.int64)
        return FeatureMatrix(self.columns, out, labels)


def _filled(column: Sequence[Value], impute: Value) -> np.ndarray:
    """A numeric column as float64, missing cells replaced by ``impute``."""
    x = np.array(column, dtype=np.float64)  # None -> NaN; parsing never yields NaN
    x[np.isnan(x)] = impute
    return x


def encode(train: Dataset, features: list[str]) -> tuple[FeatureMatrix, FeatureEncoder]:
    """Fit an encoder on the training set and return its encoded matrix."""
    by_name = {a.name: a for a in train.schema}
    specs: list[ColumnSpec] = []
    for name in features:
        attr = by_name.get(name)
        if attr is None:
            raise UnknownFeatureError(name)
        column = train.columns[attr.index]
        found = mode_of(column)
        impute: Value = found[0] if found is not None else (0.0 if attr.kind == NUMERIC else "")
        if attr.kind == NUMERIC:
            vals = _filled(column, impute)
            mean = float(vals.mean())
            std = float(vals.std())
            if std == 0.0:
                std = 1.0  # constant column: center only
            specs.append(ColumnSpec(name, NUMERIC, mean=mean, std=std, impute=impute))
        else:
            tokens = sorted({impute if v is None else v for v in column})
            specs.append(ColumnSpec(name, CATEGORICAL, categories=tuple(tokens), impute=impute))
    encoder = FeatureEncoder(tuple(specs))
    return encoder.transform(train), encoder
