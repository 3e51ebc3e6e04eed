"""Loading, typing, splitting, and synthesizing labeled flow datasets.

A dataset is a column-major table of typed cells, one tuple per attribute,
plus a binary label per row (0 = normal traffic, 1 = attack). Cells are
plain Python values: ``float`` for numeric, ``str`` for categorical,
``None`` for missing. Text is transposed once, at the CSV boundary.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Sequence

from .errors import (
    EmptyDatasetError,
    InvalidSpecError,
    MalformedCsvError,
    SchemaMismatchError,
    TooFewRecordsError,
    UnknownLabelColumnError,
    UnmappableLabelError,
)

Value = float | str | None
Kind = Literal["numeric", "categorical"]

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Strict numeric syntax: period decimal separator, optional sign/exponent.
# Deliberately rejects float()-isms such as "1_0", "nan", "inf", "  7".
_NUMERIC_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

# Tokens accepted in the label column. Attack names cover the NSL-KDD
# label vocabulary (training and test variants) plus its four categories.
NORMAL_LABEL_TOKENS = frozenset({"0", "normal", "Normal", "benign"})
_NSL_KDD_ATTACKS = frozenset({
    "dos", "u2r", "r2l", "probe",
    "back", "buffer_overflow", "ftp_write", "guess_passwd", "imap",
    "ipsweep", "land", "loadmodule", "multihop", "neptune", "nmap", "perl",
    "phf", "pod", "portsweep", "rootkit", "satan", "smurf", "spy",
    "teardrop", "warezclient", "warezmaster",
    "apache2", "httptunnel", "mailbomb", "mscan", "named", "processtable",
    "ps", "saint", "sendmail", "snmpgetattack", "snmpguess", "sqlattack",
    "udpstorm", "worm", "xlock", "xsnoop", "xterm",
})
ATTACK_LABEL_TOKENS = frozenset({"1", "attack", "anomaly"}) | _NSL_KDD_ATTACKS


@dataclass(frozen=True)
class AttributeSchema:
    """One typed column: name, 0-based position, and value kind."""

    name: str
    index: int
    kind: Kind


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled table, one column per attribute. ``name`` is metadata only."""

    schema: tuple[AttributeSchema, ...]
    columns: tuple[tuple[Value, ...], ...]
    labels: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "columns", tuple(map(tuple, self.columns)))
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise EmptyDatasetError("dataset has no records")
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise SchemaMismatchError("duplicate attribute names in schema")
        if [a.index for a in self.schema] != list(range(len(self.schema))):
            raise SchemaMismatchError("schema indices are not contiguous from 0")
        n = len(self.labels)
        if len(self.columns) != len(self.schema) or any(len(c) != n for c in self.columns):
            raise SchemaMismatchError(f"expected {len(self.schema)} columns of {n} cells each")

    @property
    def n_records(self) -> int:
        return len(self.labels)

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema)


@dataclass(frozen=True)
class SplitSpec:
    """Seeded-shuffle ratio split: ``fraction`` of the rows train."""

    fraction: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.fraction < 1.0):
            raise InvalidSpecError(f"split fraction must be in (0,1), got {self.fraction}")
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    if not (0 <= seed < 2**64):
        raise InvalidSpecError(f"seed must be an unsigned 64-bit integer, got {seed}")


def is_numeric_token(token: str) -> bool:
    return bool(_NUMERIC_RE.match(token))


def parse_value(token: str, kind: Kind) -> Value:
    """Parse one CSV cell under a known column kind. Empty cell -> Missing."""
    if token == "":
        return None
    if kind == NUMERIC:
        if not is_numeric_token(token):
            return None  # coercion path for test files conformed to a train schema
        return float(token)
    return token


def map_label(token: str) -> int | None:
    """Return 0/1 for a recognized label token, None if unmappable."""
    if token in NORMAL_LABEL_TOKENS:
        return 0
    if token in ATTACK_LABEL_TOKENS:
        return 1
    return None


def infer_schema(
    text_columns: Sequence[Sequence[str]], names: Sequence[str] | None = None
) -> list[AttributeSchema]:
    """Infer column kinds from raw text columns.

    A column is numeric iff every non-empty cell parses as a number; empty
    cells are ignored for the kind decision. Columns with no non-empty cell
    default to numeric (vacuous).
    """
    if not text_columns or not text_columns[0]:
        raise EmptyDatasetError("cannot infer a schema without columns and rows")
    if names is None:
        names = [f"c{i}" for i in range(len(text_columns))]
    kinds = [
        NUMERIC if all(t == "" or is_numeric_token(t) for t in col) else CATEGORICAL
        for col in text_columns
    ]
    return [AttributeSchema(names[c], c, kind) for c, kind in enumerate(kinds)]


def _read_raw_csv(path: str | Path) -> tuple[list[str], list[tuple[str, ...]]]:
    """The header and the text of every column, the label column included."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path} is empty") from None
        rows = [row for row in reader if row]  # skip blank trailing lines
    width = len(header)
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise MalformedCsvError(i, f"expected {width} fields, got {len(row)}")
    if not rows:
        raise EmptyDatasetError(f"{path} has a header but no data rows")
    return header, list(zip(*rows))


def load_csv(
    path: str | Path, label_column: str, schema: Sequence[AttributeSchema] | None = None
) -> Dataset:
    """Load a headered CSV, pulling ``label_column`` out as the binary label.

    Column kinds are inferred from the text unless ``schema`` gives them. A
    test file is typed from its own text under the training kinds, so a
    token such as ``0`` stays ``0`` in a categorical column.
    """
    header, text = _read_raw_csv(path)
    if label_column not in header:
        raise UnknownLabelColumnError(label_column, header)
    label_idx = header.index(label_column)

    label_text = text.pop(label_idx)
    labels = [map_label(token) for token in label_text]
    if None in labels:
        i = labels.index(None)
        raise UnmappableLabelError(i + 1, label_text[i])

    names = [h for j, h in enumerate(header) if j != label_idx]
    if schema is None:
        schema = infer_schema(text, names)
    # every column as text first; conform then parses the numeric ones
    as_text = [AttributeSchema(a, j, CATEGORICAL) for j, a in enumerate(names)]
    raw = [tuple(t or None for t in col) for col in text]
    return conform(Dataset(as_text, raw, labels, name=Path(path).stem), schema)


def format_cell(value: Value) -> str:
    """Inverse of parse_value: repr round-trips floats exactly."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(dataset: Dataset, path: str | Path, label_column: str = "label") -> None:
    """Serialize so that load_csv reads back an identical dataset."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.attribute_names()) + [label_column])
        for row in zip(*dataset.columns, dataset.labels):
            writer.writerow([format_cell(v) for v in row])


def conform(dataset: Dataset, schema: Sequence[AttributeSchema]) -> Dataset:
    """Re-type a dataset against a reference schema (same column names, in order).

    Only the columns whose kind differs are rebuilt, each cell through its
    text: exact for text (categorical) columns, which is how load_csv types
    a file. Cells that fail to parse under the reference kind become Missing.
    """
    ref = tuple(schema)
    if dataset.attribute_names() != tuple(a.name for a in ref):
        raise SchemaMismatchError(
            f"column names differ: {dataset.attribute_names()} vs {tuple(a.name for a in ref)}"
        )
    if tuple(a.kind for a in dataset.schema) == tuple(a.kind for a in ref):
        return dataset
    columns = tuple(
        col if have.kind == want.kind
        else tuple(parse_value(format_cell(v), want.kind) for v in col)
        for col, have, want in zip(dataset.columns, dataset.schema, ref)
    )
    return Dataset(ref, columns, dataset.labels, name=dataset.name)


def project(dataset: Dataset, features: Sequence[str]) -> Dataset:
    """Restrict to the named attributes, preserving the given order."""
    by_name = {a.name: a for a in dataset.schema}
    missing = [f for f in features if f not in by_name]
    if missing:
        raise SchemaMismatchError(f"unknown attributes: {missing}")
    schema = tuple(
        AttributeSchema(f, i, by_name[f].kind) for i, f in enumerate(features)
    )
    columns = tuple(dataset.columns[by_name[f].index] for f in features)
    return Dataset(schema, columns, dataset.labels, name=dataset.name)


def _take(dataset: Dataset, indices: Sequence[int], name: str) -> Dataset:
    """The rows at ``indices``, in that order."""
    pick = operator.itemgetter(*indices)  # gives a bare cell, not a 1-tuple, for one index
    take = pick if len(indices) > 1 else lambda col: (pick(col),)
    return Dataset(dataset.schema, map(take, dataset.columns), take(dataset.labels), name=name)


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded-shuffle ratio split. First ceil(n * fraction) shuffled rows train."""
    n = dataset.n_records
    if n < 2:
        raise TooFewRecordsError("ratio split needs at least 2 records")
    order = list(range(n))
    random.Random(spec.seed).shuffle(order)
    # clamp keeps both sides non-empty even when ceil(n * f) == n
    k = min(max(1, math.ceil(n * spec.fraction)), n - 1)
    prefix = f"{dataset.name}-" if dataset.name else ""
    return _take(dataset, order[:k], f"{prefix}train"), _take(dataset, order[k:], f"{prefix}test")


def group_by_label(dataset: Dataset) -> Dataset:
    """Stable-reorder rows so all label-0 rows precede label-1 rows."""
    order = sorted(range(dataset.n_records), key=dataset.labels.__getitem__)
    return _take(dataset, order, dataset.name)


# --- synthetic data -----------------------------------------------------------

@dataclass(frozen=True)
class SynthManifest:
    """Ground truth for a synthesized dataset: which features carry signal."""

    signal_features: tuple[str, ...]
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {"signal_features": list(self.signal_features), "seed": self.seed}
        )


def _signal_numeric(r: random.Random, label: int, center: int) -> float:
    # Discrete triangular around an integer center; class 1 center sits one
    # step (= 3 pooled standard deviations, sd ~ 1/3) above class 0. Integer
    # values keep per-partition modes repeatable for the rule miner.
    c = center + label
    u = r.random()
    if u < 0.05:
        return float(c - 1)
    if u >= 0.95:
        return float(c + 1)
    return float(c)


def _signal_categorical(r: random.Random, label: int, tokens: tuple[str, str]) -> str:
    # 80/20 token skew for class 0, mirrored 20/80 for class 1.
    p_first = 0.8 if label == 0 else 0.2
    return tokens[0] if r.random() < p_first else tokens[1]


def synth_dataset(
    n_records: int,
    n_noise_features: int,
    n_signal_features: int,
    seed: int,
) -> tuple[Dataset, SynthManifest]:
    """Generate a balanced dataset with planted signal features.

    Signal features alternate numeric (two class-conditional value ranges,
    means 3 pooled standard deviations apart, quantized to integers) and
    categorical (80/20 vs 20/80 token skew). Noise features alternate
    uniform continuous numeric and uniform 4-token categorical, both
    class-independent. Feature positions are seeded-shuffled; the manifest
    names the signal columns.
    """
    if n_signal_features < 1:
        raise InvalidSpecError("need at least one signal feature")
    if n_records < 4:
        raise InvalidSpecError("need at least 4 records")
    if n_noise_features < 0:
        raise InvalidSpecError("noise feature count cannot be negative")
    _check_seed(seed)

    r = random.Random(seed)
    m = n_noise_features + n_signal_features
    positions = list(range(m))
    r.shuffle(positions)
    signal_positions = sorted(positions[:n_signal_features])
    signal_set = set(signal_positions)

    names = [f"f{i:02d}" for i in range(m)]
    kinds: list[Kind] = []
    sig_rank: dict[int, int] = {}
    noise_rank: dict[int, int] = {}
    for i in range(m):
        if i in signal_set:
            sig_rank[i] = len(sig_rank)
            kinds.append(NUMERIC if sig_rank[i] % 2 == 0 else CATEGORICAL)
        else:
            noise_rank[i] = len(noise_rank)
            kinds.append(NUMERIC if noise_rank[i] % 2 == 0 else CATEGORICAL)

    labels = tuple(i % 2 for i in range(n_records))
    # draws stay in row-major order, so every seed keeps its values
    columns: list = [[] for _ in range(m)]
    for label in labels:
        for i in range(m):
            if i in signal_set:
                k = sig_rank[i]
                if kinds[i] == NUMERIC:
                    columns[i].append(_signal_numeric(r, label, center=10 + 4 * k))
                else:
                    columns[i].append(_signal_categorical(r, label, (f"s{k}a", f"s{k}b")))
            else:
                if kinds[i] == NUMERIC:
                    columns[i].append(r.random())
                else:
                    columns[i].append(f"n{int(r.random() * 4)}")
    for i in range(m):
        # one column at a time, so a list and its tuple copy never all coexist
        columns[i] = tuple(columns[i])

    schema = tuple(AttributeSchema(names[i], i, kinds[i]) for i in range(m))
    dataset = Dataset(schema, columns, labels, name=f"synth-{seed}")
    manifest = SynthManifest(tuple(names[i] for i in signal_positions), seed)
    return dataset, manifest
