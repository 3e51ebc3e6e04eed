"""Loading, typing, splitting, and synthesizing labeled flow datasets.

A dataset is a column-major table, one typed numpy array per attribute,
plus a binary label per row (0 = normal traffic, 1 = attack). A numeric
column is float64 with NaN for a missing cell; a number is a token of
ASCII digits, sign, period and exponent that float64 holds, so ``nan``,
``inf`` and a token that overflows are none, and every value is finite.
``_plain_numbers`` is the one function that applies that rule. A
categorical column is int32 codes into the column's vocabulary, a sorted
tuple of distinct tokens, with -1 for a missing cell. Cells become Python
values (``float``, ``str`` or ``None``) only at the edges: CSV text, dumps
and reports. A CSV file is read and typed a block of rows at a time, about
``_BLOCK_CELLS`` cells whatever its width, so its text never exists whole.
A block with no quote and no blank line is split at its commas;
``csv.reader`` reads the header and, from the first block that holds
either, the rest of the file.
A column that turns out to be categorical only after its first block costs
one more typed read of the whole file, and that read is the one returned.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
from contextlib import closing, contextmanager
from dataclasses import dataclass
from itertools import chain, count, islice
from pathlib import Path
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyDatasetError,
    MalformedCsvError,
    SchemaMismatchError,
    TooFewRecordsError,
    UnknownLabelColumnError,
    UnmappableLabelError,
    UnreadableCsvError,
)

Value = float | str | None
Kind = Literal["numeric", "categorical"]

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# A token is a number iff it is text of only these characters, float()
# accepts it and the result is finite. The alphabet holds no whitespace,
# "_", "nan", "inf" or non-ASCII digit, so float() accepts exactly the
# strict syntax: ASCII digits, a period decimal separator, an optional sign
# and exponent.
_PLAIN_TEXT_RE = re.compile(r"[0-9+\-.eE]*")

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
    """One typed column: name and value kind."""

    name: str
    kind: Kind


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable labeled table, one typed array per attribute.

    ``vocabularies`` holds one tuple per column: the sorted, distinct tokens a
    categorical column's codes index (it may hold tokens no cell uses, as
    after a split), and ``()`` for a numeric column.
    """

    schema: tuple[AttributeSchema, ...]
    columns: tuple[np.ndarray, ...]
    vocabularies: tuple[tuple[str, ...], ...]
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "vocabularies", tuple(map(tuple, self.vocabularies)))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if not self.labels.size:
            raise EmptyDatasetError("dataset has no records")
        if self.labels.min() < 0 or self.labels.max() > 1:
            raise SchemaMismatchError("labels must be 0 or 1")
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise SchemaMismatchError("duplicate attribute names in schema")
        n = self.labels.shape[0]
        m = len(self.schema)
        if len(self.columns) != m or any(c.shape != (n,) for c in self.columns):
            raise SchemaMismatchError(f"expected {m} columns of {n} cells each")
        if len(self.vocabularies) != m:
            raise SchemaMismatchError(f"expected {m} vocabularies")
        for attr, col, vocab in zip(self.schema, self.columns, self.vocabularies):
            if attr.kind == NUMERIC and (col.dtype != np.float64 or vocab):
                raise SchemaMismatchError(f"numeric column {attr.name!r} must be float64")
            if attr.kind == CATEGORICAL and (
                col.dtype != np.int32 or not -1 <= col.min() <= col.max() < len(vocab)
            ):
                raise SchemaMismatchError(
                    f"categorical column {attr.name!r} must be int32 codes into its vocabulary"
                )
            if any(not isinstance(t, str) for t in vocab) or list(vocab) != sorted(set(vocab)):
                raise SchemaMismatchError(f"{attr.name!r}: vocabulary not sorted, distinct strings")

    @property
    def n_records(self) -> int:
        return self.labels.shape[0]

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema)


def is_missing(column: np.ndarray) -> np.ndarray:
    """Mask of the missing cells: NaN in a numeric column, -1 in a categorical one."""
    return np.isnan(column) if column.dtype == np.float64 else column < 0


def check_seed_and_fraction(seed: int, fraction: float | None = None) -> None:
    """Raise ConfigError unless ``seed`` is an unsigned 64-bit integer
    and ``fraction``, if given, a training fraction in (0, 1)."""
    if not (0 <= seed < 2**64):
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if fraction is not None and not (0.0 < fraction < 1.0):
        raise ConfigError(f"split fraction must be in (0, 1), got {fraction}")


_LABEL_CODES = {**dict.fromkeys(ATTACK_LABEL_TOKENS, 1), **dict.fromkeys(NORMAL_LABEL_TOKENS, 0)}


# CSV cells read and typed, or turned into text, at a time: a block of a
# file ``width`` fields wide holds max(1, _BLOCK_CELLS // width) rows.
_BLOCK_CELLS = 1 << 15


def load_csv(
    path: str | Path, label_column: str, schema: Sequence[AttributeSchema] | None = None
) -> Dataset:
    """Load a headered CSV, pulling ``label_column`` out as the binary label.

    The file is read a block of ``max(1, _BLOCK_CELLS // width)`` lines at
    a time (780 at 42 fields), and each block's columns are typed as soon as
    they are read, so the text of the whole table never exists at once, and
    the text held is bounded whatever the file's width. A block that
    ``csv.reader`` would read as plain comma-separated fields, as a file
    ``write_csv`` writes is, is split with ``str.split`` instead; from the
    first block that is not, such as one with a quote or a blank line,
    ``csv.reader`` reads the rest. Column kinds are inferred from the whole
    column unless ``schema`` gives them. A test file is typed from its own
    text under the training kinds, so a token such as ``0`` stays ``0`` in
    a categorical column. A column inferred from numbers that meets a
    non-number in a later block is categorical; its earlier text is gone by
    then, so the whole file is read once more under the inferred kinds, and
    that read is the one returned. The smaller the block, the earlier in a
    file a first non-number costs that second read.

    Faults are reported in file order: the header's, then each data row's.
    """
    path = Path(path)
    names, columns, labels = _read(path, label_column, schema)
    if any(column.late for column in columns):
        kinds = [CATEGORICAL if c.late else c.kind or NUMERIC for c in columns]
        del columns, labels  # so the second read's peak is one read's
        schema = tuple(map(AttributeSchema, names, kinds))
        names, columns, labels = _read(path, label_column, schema)
    typed, vocabularies, kinds = zip(*(column.typed() for column in columns))
    return Dataset(tuple(map(AttributeSchema, names, kinds)), typed, vocabularies, labels)


def _read(
    path: Path, label_column: str, schema: Sequence[AttributeSchema] | None
) -> tuple[list[str], list[_Column], np.ndarray]:
    """One read of the file: its column names, typed columns and labels."""
    with closing(_read_chunks(path)) as chunks:
        header = next(chunks)
        twice = next((h for j, h in enumerate(header) if h in header[:j]), None)
        if twice is not None:
            raise SchemaMismatchError(f"{path} names column {twice!r} twice")
        if label_column not in header:
            raise UnknownLabelColumnError(label_column, header)
        label_idx = header.index(label_column)
        names = [h for j, h in enumerate(header) if j != label_idx]
        if not names:
            raise EmptyDatasetError(f"{path} has no column besides {label_column!r}")
        if schema is None:
            columns = [_Column(None) for _ in names]
        else:
            columns = [_Column(a.kind) for a in _reference(tuple(names), schema)]
        label_parts = []
        for first, text in chunks:
            label_parts.append(_labels(text.pop(label_idx), first))
            for column in columns:
                column.add(text.pop(0))  # the block's text goes as it is typed
    if not label_parts:
        raise EmptyDatasetError(f"{path} has a header but no data rows")
    return names, columns, np.concatenate(label_parts)


def _read_chunks(path: Path) -> Iterator:
    """The header, then ``(first, text)`` for each chunk of up to
    ``max(1, _BLOCK_CELLS // width)`` data rows, where ``width`` is
    the header's field count: the number of data rows before the chunk, and
    its cells as a list of one sequence per column. Nothing here holds a
    chunk once the next is read: the consumer may empty ``text`` as it goes.

    ``csv.reader`` reads the header. Then each block of as many lines is
    split at its commas when ``_plain_columns`` finds that ``csv.reader``
    would read it so; the first block that is not so (a quote, a blank
    line, a ragged row, ...) and the rest of the file go to ``csv.reader``,
    so a quoted field may span lines and blocks, and blank lines are skipped.

    The rows before a ragged row are yielded as a chunk of their own, so a
    bad label among them is reported first; the ragged row then raises
    MalformedCsvError. A ``csv.Error`` names its line in the whole file.
    """
    try:
        fh = path.open(newline="", encoding="utf-8-sig")  # drops a leading BOM
    except OSError as exc:  # such as a missing file, a directory, or a name too long
        raise UnreadableCsvError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        reader, before = csv.reader(fh), 0  # before: the file's lines ahead of reader's
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyDatasetError(f"{path} is empty")
            yield header
            width, first = len(header), 0
            block = max(1, _BLOCK_CELLS // width)
            while (lines := list(islice(fh, block))) and (text := _plain_columns(lines, width)):
                n = len(lines)
                del lines
                yield first, text
                del text
                first += n
            before = reader.line_num + first  # a plain block's lines are its rows
            reader = csv.reader(chain(lines, fh))
            rows = filter(None, reader)  # skip blank lines
            while chunk := list(islice(rows, block)):
                ragged = next((i for i, row in enumerate(chunk) if len(row) != width), None)
                if ragged is not None:
                    if ragged:
                        yield first, list(zip(*chunk[:ragged]))
                    detail = f"expected {width} fields, got {len(chunk[ragged])}"
                    raise MalformedCsvError(first + ragged + 1, detail)
                text, n = list(zip(*chunk)), len(chunk)
                del chunk  # the rows' cells now live only in text
                yield first, text
                del text
                first += n
        except UnicodeDecodeError as exc:
            detail = f"byte 0x{exc.object[exc.start]:02x}, {exc.reason}"
            raise UnreadableCsvError(f"{path} is not UTF-8 text ({detail})") from None
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise UnreadableCsvError(f"{path}, line {before + reader.line_num}: {exc}") from None


def _plain_columns(lines: list[str], width: int) -> list[list[str]] | None:
    """The cells of ``lines``, one list per column, if ``csv.reader`` reads
    each of them as ``width`` fields split at every comma; otherwise None.

    It does so when the lines hold no quote, NUL or ``\\r`` but in a
    ``\\r\\n`` ending, none is blank or longer than ``csv.field_size_limit()``,
    and each has ``width - 1`` commas.
    """
    text = "".join(lines)
    if '"' in text or "\0" in text or "\n" in lines or "\r\n" in lines:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if not text.endswith("\n"):  # the file's last line
        text += "\n"
    # each line's fields, then "\n": every (width + 1)-th cell if none is ragged
    text = text.replace("\n", ",\n,")  # so the text is held once as it is split
    flat = text.split(",")
    del text, flat[-1]
    n, stride = len(lines), width + 1
    if len(flat) != n * stride or flat[width::stride].count("\n") != n:
        return None
    return [flat[j::stride] for j in range(width)]


def _labels(tokens: Sequence[str], first: int) -> np.ndarray:
    """A chunk's 0/1 labels; ``first`` data rows come before the chunk."""
    labels = list(map(_LABEL_CODES.get, tokens))
    if None in labels:
        i = labels.index(None)
        raise UnmappableLabelError(first + i + 1, tokens[i])
    return np.array(labels, dtype=np.int64)


class _Column:
    """One column, typed a chunk of text at a time.

    With ``kind`` None the column is numeric while every non-empty token is a
    number (vacuously so when there is none). Under a numeric kind a token
    that is no number becomes missing: each distinct token is checked by
    ``_plain_numbers`` alone and the chunk is parsed once more with the
    failing ones blank. A categorical chunk is coded against the column's
    growing vocabulary, one dict lookup per cell.
    """

    def __init__(self, kind: Kind | None):
        self.kind = kind  # None while every token so far is a number
        self.parts: list[np.ndarray] = []
        self.index = _Codes({"": -1})  # token -> code, in first-seen order
        self.late = False  # a non-number came after numbers whose text is gone

    def add(self, text: Sequence[str]) -> None:
        if self.late:
            return
        if self.kind != CATEGORICAL:
            numbers = _plain_numbers(text)
            if numbers is None and self.kind == NUMERIC:
                kept = {t: t if _plain_numbers([t]) is not None else "" for t in set(text)}
                numbers = _plain_numbers(list(map(kept.__getitem__, text)))
            if numbers is not None:
                self.parts.append(numbers)
                return
            if self.parts:
                self.late, self.parts = True, []
                return
            self.kind = CATEGORICAL
        self.parts.append(np.fromiter(map(self.index.__getitem__, text), np.int32, len(text)))

    def typed(self) -> tuple[np.ndarray, tuple[str, ...], Kind]:
        """The column's array, vocabulary and kind."""
        column = np.concatenate(self.parts)
        self.parts = []  # so the columns joined so far are the only copy
        if self.kind == CATEGORICAL:
            return *_sorted_codes(column, list(self.index)[1:]), CATEGORICAL
        return column, (), NUMERIC


class _Codes(dict):
    """token -> code, where a token not yet seen takes the next code."""

    def __missing__(self, token: str) -> int:
        self[token] = code = len(self) - 1  # the "" -> -1 entry takes no code
        return code


def _plain_numbers(text: Sequence[str]) -> np.ndarray | None:
    """Every cell's number, NaN for "", if each non-empty token is a number;
    otherwise None. This is the one place that tells a number."""
    if not _PLAIN_TEXT_RE.fullmatch("".join(text)):
        return None
    if "" in text:  # the check above let no "nan" through, so "nan" is a blank
        text = [token or "nan" for token in text]
    try:
        numbers = np.array(text, dtype=np.float64)  # float() on each str
    except ValueError:  # plain characters that make no number, such as "1e" or "."
        return None
    return None if np.isinf(numbers).any() else numbers  # "1e400" overflows


def _sorted_codes(codes: np.ndarray, tokens: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes into distinct ``tokens`` (any order) renumbered into them sorted."""
    order = sorted(range(len(tokens)), key=tokens.__getitem__)
    renumber = np.empty(len(tokens) + 1, dtype=np.int32)
    renumber[order] = np.arange(len(tokens), dtype=np.int32)
    renumber[-1] = -1
    return renumber[codes], tuple(tokens[j] for j in order)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Serialize with the labels in a last column named "label".

    ``load_csv(path, "label")`` reads back an identical dataset only if no
    token is empty (one reads back missing), every categorical column holds
    a token that is no number and no numeric cell is infinite (else the
    kind flips), and no attribute is named "label". Rows are spelled a block
    of about ``_BLOCK_CELLS`` cells at a time, so the text of the whole
    table never exists at once.
    """
    step = max(1, _BLOCK_CELLS // (dataset.n_attributes + 1))
    blocks = (slice(start, start + step) for start in range(0, dataset.n_records, step))
    rows = chain.from_iterable(
        zip(*map(column_values, [c[block] for c in dataset.columns], dataset.vocabularies),
            dataset.labels[block].tolist())
        for block in blocks
    )
    write_rows(path, [*dataset.attribute_names(), "label"], rows)


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as CSV lines ended by "\\n", through
    ``atomic_open``: every CSV file the program writes goes through here.
    ``csv.writer`` spells a float with ``repr``, which round-trips, any other
    non-string with ``str()`` and None as an empty cell, so cells are Python
    values: a numpy scalar's ``repr`` names its type."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_TEMP_IDS = count()


@contextmanager
def atomic_open(path: str | Path):
    """A text file that replaces ``path`` only once the block completes.

    It is written as a temp file in the target's directory and moved over
    ``path`` with os.replace, so a failure leaves neither a partial file nor
    the temp file behind, and an older file at ``path`` stays as it was.
    The temp name does not grow with the target's, so any name the file
    system accepts can be written; a counter keeps a process's writes apart.
    """
    target = Path(path)
    tmp = target.parent / f".cparm-{os.getpid()}-{next(_TEMP_IDS)}.tmp"
    try:
        with tmp.open("w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def column_values(column: np.ndarray, vocabulary: tuple[str, ...]) -> list[Value]:
    """Each cell as a value: its float, its code's token, None if missing."""
    if column.dtype == np.float64:
        return [x if x == x else None for x in column.tolist()]  # NaN != NaN
    return list(map((*vocabulary, None).__getitem__, column.tolist()))


def conform(dataset: Dataset, schema: Sequence[AttributeSchema]) -> Dataset:
    """Re-type a dataset against a reference schema (same column names, in order).

    Only the columns whose kind differs are rebuilt: each is written as its
    CSV text and typed as load_csv types that text, so cells that fail to
    parse under the reference kind become missing.
    """
    ref = _reference(dataset.attribute_names(), schema)
    if tuple(a.kind for a in dataset.schema) == tuple(a.kind for a in ref):
        return dataset
    columns, vocabularies = list(dataset.columns), list(dataset.vocabularies)
    for j, (have, want) in enumerate(zip(dataset.schema, ref)):
        if have.kind != want.kind:
            column = _Column(want.kind)
            values = column_values(columns[j], vocabularies[j])
            column.add(["" if v is None else str(v) for v in values])
            columns[j], vocabularies[j], _ = column.typed()
    return Dataset(ref, columns, vocabularies, dataset.labels)


def _reference(
    names: tuple[str, ...], schema: Sequence[AttributeSchema]
) -> tuple[AttributeSchema, ...]:
    """``schema`` as a tuple, once its names are checked against ``names``."""
    ref = tuple(schema)
    if names != tuple(a.name for a in ref):
        raise SchemaMismatchError(f"column names differ: {names} vs {tuple(a.name for a in ref)}")
    return ref


def project(dataset: Dataset, features: Sequence[str]) -> Dataset:
    """Restrict to the named attributes, in the given order.

    This is the one place that finds attributes by name: the engines fit and
    predict on the columns of a projected dataset, in order.
    """
    position = {a.name: j for j, a in enumerate(dataset.schema)}
    missing = [f for f in features if f not in position]
    if missing:
        raise SchemaMismatchError(f"unknown attributes: {missing}")
    picked = [position[f] for f in features]
    return Dataset(
        [dataset.schema[j] for j in picked],
        [dataset.columns[j] for j in picked],
        [dataset.vocabularies[j] for j in picked],
        dataset.labels,
    )


def require_schema(dataset: Dataset, expected: Sequence[tuple[str, Kind]]) -> None:
    """Raise SchemaMismatchError unless the dataset's (name, kind) pairs are
    ``expected``, in that order."""
    have = tuple((a.name, a.kind) for a in dataset.schema)
    if have != tuple(expected):
        raise SchemaMismatchError(f"expected columns {tuple(expected)}, got {have}")


def _take(dataset: Dataset, rows: np.ndarray) -> Dataset:
    """The rows at ``rows``, in that order."""
    return Dataset(
        dataset.schema,
        [col[rows] for col in dataset.columns],
        dataset.vocabularies,
        dataset.labels[rows],
    )


def split(dataset: Dataset, fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded-shuffle ratio split. First ceil(n * fraction) shuffled rows train."""
    check_seed_and_fraction(seed, fraction)
    n = dataset.n_records
    if n < 2:
        raise TooFewRecordsError("ratio split needs at least 2 records")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    rows = np.array(order, dtype=np.intp)
    # clamp keeps both sides non-empty even when ceil(n * f) == n
    k = min(max(1, math.ceil(n * fraction)), n - 1)
    return _take(dataset, rows[:k]), _take(dataset, rows[k:])


def group_by_label(dataset: Dataset) -> Dataset:
    """Stable-reorder rows so all label-0 rows precede label-1 rows."""
    return _take(dataset, np.argsort(dataset.labels, kind="stable"))


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
        raise ConfigError("need at least one signal feature")
    if n_records < 4:
        raise ConfigError("need at least 4 records")
    if n_noise_features < 0:
        raise ConfigError("noise feature count cannot be negative")
    check_seed_and_fraction(seed)

    r = random.Random(seed)
    m = n_noise_features + n_signal_features
    positions = list(range(m))
    r.shuffle(positions)
    signal_set = set(positions[:n_signal_features])

    # Every cell consumes one random() of r, in row-major order. numpy's
    # legacy generator is the same MT19937 with the same double recipe, so
    # it continues r's stream: one (n, m) block holds every cell's draw.
    _version, state, _gauss = r.getstate()
    stream = np.random.RandomState()
    stream.set_state(("MT19937", np.array(state[:-1], dtype=np.uint32), state[-1]))
    draws = stream.random_sample((n_records, m))

    labels = np.arange(n_records) % 2
    names = [f"f{i:02d}" for i in range(m)]
    signal: list[str] = []
    built: list[tuple[Kind, np.ndarray, tuple[str, ...]]] = []  # (kind, column, vocabulary)
    for i, name in enumerate(names):
        u = draws[:, i]
        if i in signal_set:
            k = len(signal)
            signal.append(name)
            if k % 2 == 0:
                # discrete triangular around an integer center; class 1 sits
                # one step (3 pooled standard deviations, sd ~ 1/3) above
                # class 0, and integer values keep partition modes repeatable
                c = 10 + 4 * k + labels
                column = np.where(u < 0.05, c - 1, np.where(u >= 0.95, c + 1, c))
                built.append((NUMERIC, column.astype(np.float64), ()))
            else:
                # 80/20 token skew for class 0, mirrored 20/80 for class 1
                column = u >= np.where(labels == 0, 0.8, 0.2)
                built.append((CATEGORICAL, column.astype(np.int32), (f"s{k}a", f"s{k}b")))
        elif (i - len(signal)) % 2 == 0:  # i - len(signal) noise columns come before this one
            built.append((NUMERIC, u.copy(), ()))
        else:
            built.append((CATEGORICAL, (u * 4).astype(np.int32), ("n0", "n1", "n2", "n3")))
    del draws

    kinds, columns, vocabularies = zip(*built)
    dataset = Dataset(tuple(map(AttributeSchema, names, kinds)), columns, vocabularies, labels)
    manifest = SynthManifest(tuple(signal), seed)
    return dataset, manifest
