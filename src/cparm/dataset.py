"""Loading, typing, splitting, and synthesizing labeled flow datasets.

A dataset is a row-major table of typed cells plus a binary label per row
(0 = normal traffic, 1 = attack). Cells are plain Python values: ``float``
for numeric, ``str`` for categorical, ``None`` for missing.
"""

from __future__ import annotations

import csv
import json
import math
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
    """Immutable labeled table. ``name`` is descriptive metadata only."""

    schema: tuple[AttributeSchema, ...]
    records: tuple[tuple[Value, ...], ...]
    labels: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "records", tuple(tuple(r) for r in self.records))
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.records:
            raise EmptyDatasetError("dataset has no records")
        if len(self.labels) != len(self.records):
            raise SchemaMismatchError(
                f"{len(self.labels)} labels for {len(self.records)} records"
            )
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise SchemaMismatchError("duplicate attribute names in schema")
        if [a.index for a in self.schema] != list(range(len(self.schema))):
            raise SchemaMismatchError("schema indices are not contiguous from 0")
        width = len(self.schema)
        for i, row in enumerate(self.records):
            if len(row) != width:
                raise SchemaMismatchError(f"row {i} has {len(row)} cells, schema has {width}")

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema)

    def column(self, index: int) -> tuple[Value, ...]:
        return tuple(row[index] for row in self.records)


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
    raw_rows: Sequence[Sequence[str]], names: Sequence[str] | None = None
) -> list[AttributeSchema]:
    """Infer column kinds from raw text rows.

    A column is numeric iff every non-empty cell parses as a number; empty
    cells are ignored for the kind decision. Columns with no non-empty cell
    default to numeric (vacuous).
    """
    if not raw_rows:
        raise EmptyDatasetError("cannot infer a schema from zero rows")
    width = len(raw_rows[0])
    if names is None:
        names = [f"c{i}" for i in range(width)]
    kinds: list[Kind] = []
    for c in range(width):
        kind: Kind = NUMERIC
        for row in raw_rows:
            cell = row[c]
            if cell != "" and not is_numeric_token(cell):
                kind = CATEGORICAL
                break
        kinds.append(kind)
    return [AttributeSchema(names[c], c, kinds[c]) for c in range(width)]


def _read_raw_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
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
    return header, rows


def load_csv(path: str | Path, label_column: str) -> Dataset:
    """Load a headered CSV, pulling ``label_column`` out as the binary label."""
    header, rows = _read_raw_csv(path)
    if label_column not in header:
        raise UnknownLabelColumnError(label_column, header)
    label_idx = header.index(label_column)

    labels = []
    for i, row in enumerate(rows, start=1):
        mapped = map_label(row[label_idx])
        if mapped is None:
            raise UnmappableLabelError(i, row[label_idx])
        labels.append(mapped)

    feat_names = [h for j, h in enumerate(header) if j != label_idx]
    feat_rows = [[cell for j, cell in enumerate(row) if j != label_idx] for row in rows]
    schema = infer_schema(feat_rows, feat_names)
    records = [
        tuple(parse_value(row[a.index], a.kind) for a in schema) for row in feat_rows
    ]
    return Dataset(tuple(schema), tuple(records), tuple(labels), name=Path(path).stem)


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
        for row, label in zip(dataset.records, dataset.labels):
            writer.writerow([format_cell(v) for v in row] + [str(label)])


def conform(dataset: Dataset, schema: Sequence[AttributeSchema]) -> Dataset:
    """Re-type a dataset against a reference schema (same column names, in order).

    Used to force a test file onto the training schema so kind inference on
    the test set can never influence anything. Numeric cells that fail to
    parse under the reference kind become Missing.
    """
    ref = tuple(schema)
    if dataset.attribute_names() != tuple(a.name for a in ref):
        raise SchemaMismatchError(
            f"column names differ: {dataset.attribute_names()} vs {tuple(a.name for a in ref)}"
        )
    if tuple(a.kind for a in dataset.schema) == tuple(a.kind for a in ref):
        return dataset
    records = tuple(
        tuple(parse_value(format_cell(v), a.kind) for v, a in zip(row, ref))
        for row in dataset.records
    )
    return Dataset(ref, records, dataset.labels, name=dataset.name)


def project(dataset: Dataset, features: Sequence[str]) -> Dataset:
    """Restrict to the named attributes, preserving the given order."""
    by_name = {a.name: a for a in dataset.schema}
    missing = [f for f in features if f not in by_name]
    if missing:
        raise SchemaMismatchError(f"unknown attributes: {missing}")
    cols = [by_name[f].index for f in features]
    schema = tuple(
        AttributeSchema(f, i, by_name[f].kind) for i, f in enumerate(features)
    )
    records = tuple(tuple(row[c] for c in cols) for row in dataset.records)
    return Dataset(schema, records, dataset.labels, name=dataset.name)


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded-shuffle ratio split. First ceil(n * fraction) shuffled rows train."""
    n = dataset.n_records
    if n < 2:
        raise TooFewRecordsError("ratio split needs at least 2 records")
    order = list(range(n))
    random.Random(spec.seed).shuffle(order)
    # clamp keeps both sides non-empty even when ceil(n * f) == n
    k = min(max(1, math.ceil(n * spec.fraction)), n - 1)
    train_idx, test_idx = order[:k], order[k:]

    def take(indices: list[int], suffix: str) -> Dataset:
        return Dataset(
            dataset.schema,
            tuple(dataset.records[i] for i in indices),
            tuple(dataset.labels[i] for i in indices),
            name=f"{dataset.name}{suffix}" if dataset.name else suffix.strip("-"),
        )

    return take(train_idx, "-train"), take(test_idx, "-test")


def group_by_label(dataset: Dataset) -> Dataset:
    """Stable-reorder rows so all label-0 rows precede label-1 rows."""
    order = sorted(range(dataset.n_records), key=lambda i: dataset.labels[i])
    return Dataset(
        dataset.schema,
        tuple(dataset.records[i] for i in order),
        tuple(dataset.labels[i] for i in order),
        name=dataset.name,
    )


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
    records = []
    for label in labels:
        row: list[Value] = []
        for i in range(m):
            if i in signal_set:
                k = sig_rank[i]
                if kinds[i] == NUMERIC:
                    row.append(_signal_numeric(r, label, center=10 + 4 * k))
                else:
                    row.append(_signal_categorical(r, label, (f"s{k}a", f"s{k}b")))
            else:
                if kinds[i] == NUMERIC:
                    row.append(r.random())
                else:
                    row.append(f"n{int(r.random() * 4)}")
        records.append(tuple(row))

    schema = tuple(AttributeSchema(names[i], i, kinds[i]) for i in range(m))
    dataset = Dataset(schema, tuple(records), labels, name=f"synth-{seed}")
    manifest = SynthManifest(tuple(names[i] for i in signal_positions), seed)
    return dataset, manifest
