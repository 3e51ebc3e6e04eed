"""Independent reference implementations used to cross-check the package.

Nothing here imports pipeline internals beyond the public data types, EM's
fixed settings, and ``synth_dataset`` and ``encode`` to build test matrices;
the arithmetic is written out anew, so the tests and the implementation
can only agree by computing the same thing.
"""

from __future__ import annotations

import csv
import math
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np

from cparm.arm import Item, Transaction, Transactions
from cparm.engines import em
from cparm.engines.encoding import (
    ColumnSpec,
    FeatureEncoder,
    FeatureMatrix,
    distinct_rows,
    encode,
)
from cparm.dataset import (
    ATTACK_LABEL_TOKENS,
    NORMAL_LABEL_TOKENS,
    AttributeSchema,
    Dataset,
    synth_dataset,
)
from cparm.errors import (
    EmptyDatasetError,
    MalformedCsvError,
    SchemaMismatchError,
    UnknownLabelColumnError,
    UnmappableLabelError,
    UnreadableCsvError,
)


def transpose(table):
    """Rows to columns or columns to rows: the Dataset stores columns."""
    return tuple(zip(*table))


def typed_column(cells, kind):
    """(array, vocabulary) for plain cells: float or None for a numeric
    column, str or None for a categorical one."""
    if kind == "numeric":
        return np.array([math.nan if v is None else v for v in cells], dtype=np.float64), ()
    vocab = tuple(sorted({v for v in cells if v is not None}))
    index = {tok: j for j, tok in enumerate(vocab)}
    return np.array([-1 if v is None else index[v] for v in cells], dtype=np.int32), vocab


def dataset(schema, columns, labels):
    """A Dataset from plain cells, one sequence per column, typed by the
    schema's kinds (a column beyond the schema is typed numeric)."""
    kinds = [a.kind for a in schema] + ["numeric"] * len(columns)
    typed = [typed_column(col, kind) for col, kind in zip(columns, kinds)]
    return Dataset(schema, [c for c, _ in typed], [v for _, v in typed], labels)


def nb_test_set(model, columns):
    """A test set of plain-cell columns, one per model feature, under the
    model's names and kinds (every label 0)."""
    schema = tuple(map(AttributeSchema, model.feature_names, model.kinds))
    return dataset(schema, columns, (0,) * len(columns[0]))


def plain_cells(column, vocab):
    """A typed column as a tuple of plain cells (float, str or None)."""
    if column.dtype == np.float64:
        return tuple(None if math.isnan(x) else x for x in column.tolist())
    return tuple(None if c < 0 else vocab[c] for c in column.tolist())


def cells(ds):
    """A Dataset's columns as tuples of plain cells (float, str or None)."""
    return tuple(map(plain_cells, ds.columns, ds.vocabularies))


def table(ds):
    """A Dataset's schema, plain cells and labels: two datasets hold the same
    table when these are equal."""
    return ds.schema, cells(ds), tuple(ds.labels.tolist())


def csv_writer_reference(path, header, rows):
    """CSV text as ``csv.writer`` writes rows of Python values: a float with
    repr, an int with str, a token quoted as needed, None as an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv_reference(ds, path):
    """write_csv's file: the plain cells of each row, then its label."""
    rows = zip(*cells(ds), ds.labels.tolist())
    csv_writer_reference(path, [*ds.attribute_names(), "label"], rows)


def centres_dump_rows(table):
    """The centres dump's rows: attribute, partition, mode and its count."""
    return [
        (a.name, k, value, count)
        for a in table.attributes
        for k, value, count in zip(
            a.partitions.tolist(), plain_cells(a.modes, a.vocabulary), a.counts.tolist()
        )
    ]


def rules_dump_rows(rules):
    """The rules dump's rows: both items, the three scores and the label."""
    return [(*r.antecedent, *r.consequent, r.support, r.confidence, r.importance, r.label)
            for r in rules]


# The strict numeric syntax, written out independently of the loader's:
# ASCII digits only, so "٣" and "1\n", which float() accepts, are no numbers.
STRICT_NUMBER = r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"


def is_finite_number(token):
    """Whether a cell's text is a number: it follows the strict syntax and
    float64 holds it."""
    return bool(re.fullmatch(STRICT_NUMBER, token)) and math.isfinite(float(token))


def label_class(token):
    """A label token's class: 1 for an attack token, 0 for a normal one,
    None for any other."""
    if token in ATTACK_LABEL_TOKENS:
        return 1
    return 0 if token in NORMAL_LABEL_TOKENS else None


def distinct_rows_reference(rows, labels=None):
    """distinct_rows as (first, inverse) lists: a dict keyed by each row's
    bytes (and its label) numbers the groups in first-occurrence order."""
    group, first, inverse = {}, [], []
    for i, row in enumerate(np.asarray(rows, dtype=np.float64)):
        key = (row.tobytes(), None if labels is None else int(labels[i]))
        if key not in group:
            group[key] = len(first)
            first.append(i)
        inverse.append(group[key])
    return first, inverse


def load_csv_reference(path, label_column, schema=None):
    """load_csv from the text of the whole file at once: every row is read,
    then every column typed from all of its tokens.

    Faults are checked in this order, each over the whole file: an unreadable
    file, an empty one, a ragged row, no data rows, the label column, a label
    token, no other column, and the schema's names.
    """
    path = Path(path)
    if not path.exists():
        raise UnreadableCsvError(f"cannot read {path}: No such file or directory")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = [row for row in reader if row]
        except UnicodeDecodeError as exc:
            detail = f"byte 0x{exc.object[exc.start]:02x}, {exc.reason}"
            raise UnreadableCsvError(f"{path} is not UTF-8 text ({detail})") from None
        except csv.Error as exc:
            raise UnreadableCsvError(f"{path}, line {reader.line_num}: {exc}") from None
    if header is None:
        raise EmptyDatasetError(f"{path} is empty")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise MalformedCsvError(i, f"expected {len(header)} fields, got {len(row)}")
    if not rows:
        raise EmptyDatasetError(f"{path} has a header but no data rows")
    if label_column not in header:
        raise UnknownLabelColumnError(label_column, header)
    label_idx = header.index(label_column)
    text = list(zip(*rows))
    label_text = text.pop(label_idx)
    labels = [label_class(token) for token in label_text]
    if None in labels:
        i = labels.index(None)
        raise UnmappableLabelError(i + 1, label_text[i])
    names = tuple(h for j, h in enumerate(header) if j != label_idx)
    if not names:
        raise EmptyDatasetError(f"{path} has no column besides {label_column!r}")
    if schema is None:
        kinds = [None] * len(names)
    else:
        if names != tuple(a.name for a in schema):
            raise SchemaMismatchError(
                f"column names differ: {names} vs {tuple(a.name for a in schema)}"
            )
        kinds = [a.kind for a in schema]
    typed = []
    for column, kind in zip(text, kinds):
        if kind is None:
            numbers = all(is_finite_number(t) for t in column if t)
            kind = "numeric" if numbers else "categorical"
        if kind == "numeric":
            cells = [float(t) if is_finite_number(t) else None for t in column]
        else:
            cells = [t or None for t in column]
        typed.append((kind, *typed_column(cells, kind)))
    kinds, columns, vocabularies = zip(*typed)
    return Dataset(tuple(map(AttributeSchema, names, kinds)), columns, vocabularies, labels)


def row_major_synth(n_records, n_noise, n_signal, seed):
    """The synthetic generator's draws made one cell at a time, row by row.

    Returns (schema, columns of plain cells, labels, signal feature names).
    Every cell consumes exactly one random() from one random.Random(seed),
    after the shuffle that places the signal columns.
    """
    r = random.Random(seed)
    m = n_noise + n_signal
    positions = list(range(m))
    r.shuffle(positions)
    signal = set(positions[:n_signal])
    roles, n_sig, n_noi = [], 0, 0
    for i in range(m):  # (is_signal, rank among its role)
        if i in signal:
            roles.append((True, n_sig))
            n_sig += 1
        else:
            roles.append((False, n_noi))
            n_noi += 1
    kinds = ["numeric" if rank % 2 == 0 else "categorical" for _, rank in roles]

    labels = [i % 2 for i in range(n_records)]
    columns = [[] for _ in range(m)]
    for label in labels:
        for i, (is_signal, rank) in enumerate(roles):
            u = r.random()
            if is_signal and kinds[i] == "numeric":
                c = 10 + 4 * rank + label
                cell = float(c - 1 if u < 0.05 else c + 1 if u >= 0.95 else c)
            elif is_signal:
                cell = f"s{rank}a" if u < (0.8 if label == 0 else 0.2) else f"s{rank}b"
            elif kinds[i] == "numeric":
                cell = u
            else:
                cell = f"n{int(u * 4)}"
            columns[i].append(cell)
    names = [f"f{i:02d}" for i in range(m)]
    schema = tuple(map(AttributeSchema, names, kinds))
    return schema, [tuple(c) for c in columns], tuple(labels), tuple(
        names[i] for i in sorted(signal)
    )


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


def transactions_reference(table):
    """One transaction per partition from the table's central-point objects,
    labelled with the partition's label. Equal items are one shared object,
    spelled as the first entry holding it."""
    per_partition = [[] for _ in range(table.p)]
    shared = {}
    for cp in table.entries:
        item = Item(cp.attribute, cp.value)
        per_partition[cp.partition].append(shared.setdefault(item, item))
    return [
        Transaction(frozenset(items), label)
        for items, label in zip(per_partition, table.labels)
    ]


def coded_transactions(transactions):
    """A hand-built list of transactions as the miner's code matrix.

    Attributes come in name order and an item is spelled as in the first
    transaction holding it, so the hash seed cannot reorder anything.
    """
    attributes = sorted({item.attribute for t in transactions for item in t.items})
    column = {a: j for j, a in enumerate(attributes)}
    codes = np.full((len(transactions), len(attributes)), -1, dtype=np.int64)
    coders = [{} for _ in attributes]
    for row, t in enumerate(transactions):
        for item in t.items:
            j = column[item.attribute]
            codes[row, j] = coders[j].setdefault(item.value, len(coders[j]))
    labels = np.array([t.label for t in transactions], dtype=np.int64)
    return Transactions(tuple(attributes), tuple(map(tuple, coders)), codes, labels)


def partition_index(n_records, p):
    """Every row's partition, the reference layout: the first p-1 get
    n // p rows each and the last the rest."""
    return np.minimum(np.arange(n_records) // (n_records // p), p - 1)


def mode_of(values):
    """Most frequent non-missing value and its count, or None if no such value.

    The documented tie rule: among equally frequent values, take the one
    whose first occurrence comes latest (the most recently introduced
    value). So ['tcp', 'udp', 'tcp', 'udp'] resolves to ('udp', 2). Values
    that compare equal are one value, spelled as first seen.
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
    for attr, column in zip(dataset.schema, dataset.columns):
        scored.append((histogram_mutual_information(list(column), list(dataset.labels)), attr.name))
    scored.sort(key=lambda s: (-s[0], s[1]))
    return [name for _, name in scored]


def sorted_groups_reference(rows, labels=None):
    """distinct_rows_reference's groups in the order distinct_rows sorts
    them: by their rows' int64 bit patterns compared from the last column to
    the first, then by label. Returns (first, counts, inverse) lists."""
    first, inverse = distinct_rows_reference(rows, labels)
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.int64)

    def key(g):
        label = () if labels is None else (int(labels[first[g]]),)
        return (*bits[first[g]][::-1].tolist(), *label)

    order = sorted(range(len(first)), key=key)
    rank = {g: i for i, g in enumerate(order)}
    counts = Counter(inverse)
    return [first[g] for g in order], [counts[g] for g in order], [rank[g] for g in inverse]


def em_fit_reference(x, seed, grouped=False):
    """EM restart by restart: ((weights, means, variances, ll_trace) of the
    best restart, its index, and each row's cluster under the best restart's
    final parameters).

    By default both steps run over every row with plain sums. With
    ``grouped``, they run over the distinct rows in the order distinct_rows
    sorts them (``sorted_groups_reference``), and the M-step's sums and the
    total log-likelihood weight each distinct row by its count. Either way
    the seeded starting means are drawn from every row, with each row's
    seeding distance computed from that row itself, where the package
    computes it once per row group. The E-step and the M-step are written
    out with the same NumPy operations in the same order as
    ``cparm.engines.em``, so with ``grouped`` the package's fit, its seeding
    draws included, must agree with this one bit for bit. The settings are
    that module's constants, read at call time, so a test that patches them
    patches both.
    """
    n, width = x.shape
    k = em.K
    if grouped:
        first, counts, inverse = sorted_groups_reference(x)
        rows, counts = x[first], np.array(counts)
    else:
        rows, inverse = x, np.arange(n)

    def e_step(weights, means, variances):
        scores = np.empty((len(rows), k), dtype=np.float64)
        for j in range(k):
            diff2 = (rows - means[j]) ** 2 / variances[j]
            scores[:, j] = (
                np.log(weights[j])
                - 0.5 * (width * np.log(2.0 * np.pi) + np.log(variances[j]).sum())
                - 0.5 * diff2.sum(axis=1)
            )
        m = scores.max(axis=1, keepdims=True)
        shifted = np.exp(scores - m)
        norm = shifted.sum(axis=1, keepdims=True)
        return shifted / norm, m[:, 0] + np.log(norm[:, 0])

    best = None
    for restart in range(em.RESTARTS):
        rng = np.random.default_rng([seed, restart])
        chosen = [int(rng.integers(n))]
        for _ in range(k - 1):
            d2 = np.min([((x - x[i]) ** 2).sum(axis=1) for i in chosen], axis=0)
            total = d2.sum()
            if total == 0.0:
                chosen.append((chosen[-1] + 1) % n)
            else:
                chosen.append(int(rng.choice(n, p=d2 / total)))
        means = x[chosen].copy()
        variances = np.ones((k, width), dtype=np.float64)
        weights = np.full(k, 1.0 / k, dtype=np.float64)
        trace = []
        for _ in range(em.MAX_ITERATIONS):
            resp, row_ll = e_step(weights, means, variances)
            if grouped:
                resp = resp * counts[:, None]
                trace.append(float(counts @ row_ll))
            else:
                trace.append(float(row_ll.sum()))
            if len(trace) >= 2 and trace[-1] - trace[-2] < em.TOLERANCE:
                break
            nk = np.maximum(resp.sum(axis=0), 1e-12)
            weights = nk / nk.sum()
            means = (resp.T @ rows) / nk[:, None]
            for j in range(k):
                variances[j] = resp[:, j] @ (rows - means[j]) ** 2 / nk[j]
            variances = np.maximum(variances, 1e-9)
        if best is None or trace[-1] > best[0][3][-1]:
            best = ((weights, means, variances, tuple(trace)), restart)
    hard = e_step(*best[0][:3])[0].argmax(axis=1)[inverse]
    return best[0], best[1], hard


def sigmoid(z):
    """The logistic function, written as cparm's logistic regression writes
    it: exp only sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def nll_loss(w, b, x, y, l2):
    """Logistic regression's loss over every row: the mean negative
    log-likelihood + (l2/2)*||w||^2, computed without overflow."""
    z = x @ w + b
    return float((np.logaddexp(0.0, z) - y * z).mean() + 0.5 * l2 * np.dot(w, w))


def nll_gradient(w, b, x, y, l2):
    """Analytic gradient of nll_loss with respect to (w, b)."""
    residual = sigmoid(x @ w + b) - y
    return x.T @ residual / x.shape[0] + l2 * w, float(residual.mean())


def counted_nll_loss(w, b, xg, yg, share, l2):
    """nll_loss with row g of ``xg`` (label ``yg[g]``) standing for the
    share ``share[g]`` of the rows, as lr_fit sums it."""
    z = xg @ w + b
    return float(share @ (np.logaddexp(0.0, z) - yg * z) + 0.5 * l2 * np.dot(w, w))


def counted_nll_gradient(w, b, xg, yg, share, l2):
    """nll_gradient over the rows ``xg`` weighted by ``share``, as lr_fit
    sums it."""
    residual = (sigmoid(xg @ w + b) - yg) * share
    return xg.T @ residual + l2 * w, float(residual.sum())


def two_blobs(seed=0, n=100, centers=(-5.0, 5.0), sigma=0.5):
    """(x, labels): n rows of one column around each centre, labelled 0 and 1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(centers[0], sigma, size=(n, 1))
    b = rng.normal(centers[1], sigma, size=(n, 1))
    return np.vstack([a, b]), np.array([0] * n + [1] * n)


def identity_encoder(width):
    """An encoder of the numeric columns x0, x1, ... that encodes each cell
    as itself (mean 0, std 1, a missing cell 0.0)."""
    return FeatureEncoder(tuple(ColumnSpec(f"x{i}", "numeric", impute=0.0) for i in range(width)))


def matrix_of(encoder, x, labels):
    """The rows ``x``, taken as ``encoder``'s encoding of a training set
    labelled ``labels``, grouped into a FeatureMatrix as ``encode`` groups
    the rows it encodes."""
    x = np.asarray(x, dtype=np.float64)
    first, inverse = distinct_rows(x)
    return FeatureMatrix(encoder, x[first], inverse, np.asarray(labels, dtype=int))


def identity_matrix(x, labels=None):
    """The rows ``x`` as a matrix of ``identity_encoder``'s columns, so a
    model fitted on it predicts ``numeric_dataset(x)`` from the very rows
    ``x``; every label 0 unless ``labels`` are given."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.zeros(len(x), dtype=int) if labels is None else labels
    return matrix_of(identity_encoder(x.shape[1]), x, labels)


def numeric_dataset(x):
    """The rows ``x`` as a Dataset of the numeric columns x0, x1, ...,
    labelled 0: what ``identity_encoder`` encodes back into ``x``."""
    x = np.asarray(x, dtype=np.float64)
    schema = tuple(AttributeSchema(f"x{i}", "numeric") for i in range(x.shape[1]))
    return Dataset(schema, list(x.T.copy()), [()] * x.shape[1], np.zeros(len(x), dtype=int))


def fixed_matrices():
    """(matrix, seed) pairs with well-separated EM restarts, on which a
    count-weighted fit and an all-row fit differ in their last digits only:
    two_blobs seeds 0-9, and the 2,000 x 20 synthetic set of acceptance
    criterion c08, encoded, seeds 0-4."""
    for seed in range(10):
        x, labels = two_blobs(seed)
        yield identity_matrix(x, labels), seed
    for seed in range(5):
        yield encode(synth_dataset(2000, 16, 4, seed)[0])[0], seed


def agrees(got, want):
    """Every value of ``got`` within 1e-12 * max(1, |want|) of ``want``: a
    count-weighted sum's distance from the all-row sum on ``fixed_matrices``."""
    want = np.asarray(want, dtype=np.float64)
    return bool(np.all(np.abs(np.asarray(got) - want) <= 1e-12 * np.maximum(1.0, np.abs(want))))
