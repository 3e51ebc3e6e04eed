import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cparm.central_points import central_points, partition_count, partition_modes
from cparm.dataset import AttributeSchema, Dataset, group_by_label, synth_dataset
from oracles import dataset, latest_first_occurrence_mode, mode_of, partition_index

# small pools make ties common; free floats cover exact numeric equality
CELLS = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.floats(allow_nan=False),
    st.sampled_from(["tcp", "udp", "icmp"]),
)

# per-kind pools: few values make ties and all-missing slices common, and
# 0.0 and -0.0 are one value whose first-seen spelling must be kept
NUMERIC_CELLS = st.one_of(
    st.none(), st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(allow_nan=False)
)
TOKEN_CELLS = st.one_of(st.none(), st.sampled_from(["tcp", "udp", "icmp"]))


class TestPartitionCount:
    def test_equal_counts(self):
        assert partition_count(42, 42) == 1

    def test_nsl_kdd_shape(self):
        assert partition_count(125973, 41) == 3072

    def test_matches_repeated_subtraction(self):
        # integer division redone as counting subtractions
        n, m = 100, 7
        quotient, remaining = 0, n
        while remaining >= m:
            remaining -= m
            quotient += 1
        assert partition_count(n, m) == quotient == 14

    def test_floors_at_one(self):
        assert partition_count(5, 10) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            partition_count(0, 3)
        with pytest.raises(ValueError):
            partition_count(3, 0)


def slices(partition):
    """The half-open row range of each partition, in partition order."""
    bounds = np.flatnonzero(np.diff(partition, prepend=-1, append=-1))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def plan(n, p):
    """The half-open row range of each partition ``partition_modes`` cuts n
    rows into: in a column of one value, a partition's mode first occurs at
    its first row and counts its rows."""
    _, firsts, counts = partition_modes(np.zeros(n), p)
    return list(zip(firsts.tolist(), (firsts + counts).tolist()))


class TestMakePlan:
    """The partition plan: partition_modes cuts the rows into p contiguous
    partitions, the first p-1 of n // p rows each and the last the rest."""

    def test_exact_division(self):
        assert plan(10, 2) == [(0, 5), (5, 10)]

    def test_remainder_goes_last(self):
        assert plan(10, 3) == [(0, 3), (3, 6), (6, 10)]

    def test_singletons(self):
        assert plan(5, 5) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_too_many_partitions(self):
        with pytest.raises(ValueError, match="cannot split"):
            partition_modes(np.zeros(4), 5)

    def test_lengths_sum_to_n_for_random_pairs(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 500)
            p = rng.randint(1, n)
            bounds = plan(n, p)
            assert len(bounds) == p  # one contiguous run per partition
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(end == start for (_, end), (start, _) in zip(bounds, bounds[1:]))
            sizes = {e - s for s, e in bounds[:-1]}
            assert sizes <= {n // p}  # all but the last share one length
            assert bounds == slices(partition_index(n, p))  # the reference layout


@st.composite
def typed_columns(draw):
    """(column, p): a float64 column (NaN missing, -0.0 beside 0.0) or an
    int32 code column (-1 missing), and a partition count from 1 to n. The
    last partition holds n // p + n % p rows, so it may be many times the
    others' length."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        cell = st.sampled_from([math.nan, 0.0, -0.0, 1.0, 2.5]) | st.floats(allow_nan=False)
        column = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=np.float64)
    else:
        column = np.array(draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)),
                          dtype=np.int32)
    return column, draw(st.integers(1, n))


class TestPartitionModes:
    @settings(deadline=None, max_examples=500)
    @given(typed_columns())
    def test_matches_the_tie_rule_oracle_on_every_partition(self, drawn):
        column, p = drawn
        missing = np.isnan(column) if column.dtype == np.float64 else column < 0
        cells = [None if m else v for v, m in zip(column.tolist(), missing.tolist())]
        want = []
        for k, (start, end) in enumerate(slices(partition_index(column.size, p))):
            part = cells[start:end]
            found = latest_first_occurrence_mode(part)
            if found is not None:
                first = next(i for i, v in enumerate(part) if v is not None and v == found[0])
                want.append((k, start + first, found[1], repr(found[0])))
        groups, firsts, counts = partition_modes(column, p)
        got = [
            (k, first, count, repr(value))
            for k, first, count, value in zip(
                groups.tolist(), firsts.tolist(), counts.tolist(), column[firsts].tolist()
            )
        ]
        assert got == want

    def test_zero_keeps_its_first_spelling(self):
        column = np.array([-0.0, 1.0, 0.0, 1.0, 0.0, math.nan], dtype=np.float64)
        groups, firsts, counts = partition_modes(column, 1)
        assert (groups.tolist(), firsts.tolist(), counts.tolist()) == ([0], [0], [3])
        assert repr(column[firsts].tolist()) == "[-0.0]"

    def test_too_many_partitions(self):
        with pytest.raises(ValueError, match="cannot split"):
            partition_modes(np.zeros(2), 3)


def column_mode(values):
    """cparm's mode of one column: its central point over one partition, as
    (value, frequency), or None when every cell is missing."""
    kind = "categorical" if any(isinstance(v, str) for v in values) else "numeric"
    ds = dataset((AttributeSchema("a", kind),), [values], (0,) * len(values))
    entries = central_points(ds, 1).entries
    return (entries[0].value, entries[0].frequency) if entries else None


class TestModeOf:
    """The documented tie rule, held by the oracle and by cparm's central points."""

    def test_numeric_fixture(self):
        for mode in (mode_of, column_mode):
            assert mode([1, 2, 1, 1, 3.2, 1]) == (1, 4)

    def test_categorical_tie_takes_latest_introduced(self):
        for mode in (mode_of, column_mode):
            assert mode(["tcp", "udp", "tcp", "udp"]) == ("udp", 2)

    def test_all_missing(self):
        for mode in (mode_of, column_mode):
            assert mode([None, None]) is None

    def test_empty(self):
        assert mode_of([]) is None

    def test_missing_excluded_from_counts(self):
        for mode in (mode_of, column_mode):
            assert mode([None, 5.0, None, 5.0, 7.0]) == (5.0, 2)

    def test_zero_mode_is_kept(self):
        for mode in (mode_of, column_mode):
            assert mode([0.0, 0.0, 1.0]) == (0.0, 2)

    def test_three_way_tie(self):
        for mode in (mode_of, column_mode):
            assert mode(["a", "b", "c"]) == ("c", 1)

    @given(
        st.lists(CELLS, max_size=30)
        | st.lists(NUMERIC_CELLS, max_size=30)
        | st.lists(TOKEN_CELLS, max_size=30)
    )
    def test_matches_tie_rule_oracle(self, values):
        want = latest_first_occurrence_mode(values)
        assert mode_of(values) == want
        if values and len({type(v) for v in values if v is not None}) <= 1:
            # a column holds one kind; the value kept is the first spelling seen
            assert repr(column_mode(values)) == repr(want)


def dataset_from_columns(columns, labels=None):
    names = [f"a{i}" for i in range(len(columns))]
    kinds = [
        "categorical" if any(isinstance(v, str) for v in col) else "numeric"
        for col in columns
    ]
    schema = tuple(map(AttributeSchema, names, kinds))
    labels = tuple(labels or [0] * len(columns[0]))
    return dataset(schema, columns, labels)


@st.composite
def partitioned_datasets(draw, labelled=False):
    """(dataset, plain columns, p); every label 0 unless ``labelled``."""
    n = draw(st.integers(1, 30))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]), min_size=1, max_size=4))
    columns = [
        draw(st.lists(NUMERIC_CELLS if k == "numeric" else TOKEN_CELLS, min_size=n, max_size=n))
        for k in kinds
    ]
    schema = tuple(AttributeSchema(f"a{i}", k) for i, k in enumerate(kinds))
    # p == n gives one-row partitions; p == 1 one partition of every row
    p = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) if labelled else (0,) * n
    return dataset(schema, columns, labels), columns, p


class TestCentralPoints:
    @settings(deadline=None, max_examples=300)
    @given(partitioned_datasets())
    def test_matches_mode_oracle_for_every_partition(self, drawn):
        ds, columns, p = drawn
        want = []
        for attr, col in zip(ds.schema, columns):
            for k, (start, end) in enumerate(slices(partition_index(ds.n_records, p))):
                found = mode_of(col[start:end])
                if found is not None:
                    want.append((attr.name, k, repr(found[0]), found[1]))
        got = [
            (e.attribute, e.partition, repr(e.value), e.frequency)
            for e in central_points(ds, p).entries
        ]
        assert got == want

    def test_constant_majority_partitions(self):
        ds = dataset_from_columns([[1.0, 1.0, 2.0, 2.0]])
        table = central_points(ds, 2)
        assert [(c.attribute, c.partition, c.value, c.frequency) for c in table.entries] == [
            ("a0", 0, 1.0, 2), ("a0", 1, 2.0, 2),
        ]

    def test_single_partition_equals_column_mode(self):
        cols = [[1.0, 2.0, 2.0, 3.0, 2.0, 1.0], ["x", "y", "x", "x", "y", "y"]]
        ds = dataset_from_columns(cols)
        table = central_points(ds, 1)
        assert len(table.entries) == 2
        for entry, col in zip(table.entries, cols):
            assert (entry.value, entry.frequency) == mode_of(col)

    def test_all_missing_slice_absent(self):
        ds = dataset_from_columns([[None, None, 1.0, 1.0]])
        table = central_points(ds, 2)
        assert [(c.partition, c.value) for c in table.entries] == [(1, 1.0)]

    def test_too_many_partitions(self):
        with pytest.raises(ValueError, match="cannot split"):
            central_points(dataset_from_columns([[1.0, 2.0]]), 3)

    def test_matches_brute_force_on_random_data(self):
        rng = random.Random(7)
        n, width, p = 60, 5, 10
        columns = []
        for c in range(width):
            if c % 2 == 0:
                columns.append([float(rng.randint(0, 5)) for _ in range(n)])
            else:
                columns.append([f"t{rng.randint(0, 3)}" for _ in range(n)])
        ds = dataset_from_columns(columns)
        table = central_points(ds, p)

        # independent oracle: slice columns, hash-count, replicate the tie rule
        size = n // p
        expected = []
        for c in range(width):
            for k in range(p):
                start = k * size
                end = n if k == p - 1 else (k + 1) * size
                chunk = columns[c][start:end]
                counts = {}
                for v in chunk:
                    counts[v] = counts.get(v, 0) + 1
                best = max(counts.values())
                winner, winner_pos = None, -1
                seen = set()
                for pos, v in enumerate(chunk):
                    if v in seen:
                        continue
                    seen.add(v)
                    if counts[v] == best and pos > winner_pos:
                        winner, winner_pos = v, pos
                expected.append((f"a{c}", k, winner, best))

        got = [(e.attribute, e.partition, e.value, e.frequency) for e in table.entries]
        assert got == expected

    def test_frequency_is_exact_count(self):
        rng = random.Random(3)
        cols = [[f"v{rng.randint(0, 2)}" for _ in range(30)]]
        ds = dataset_from_columns(cols)
        table = central_points(ds, 4)
        bounds = slices(partition_index(30, 4))
        for cp in table.entries:
            start, end = bounds[cp.partition]
            assert cp.frequency == cols[0][start:end].count(cp.value)

    def test_double_run_identical(self):
        rng = random.Random(11)
        cols = [[float(rng.randint(0, 3)) for _ in range(40)] for _ in range(3)]
        ds = dataset_from_columns(cols)
        first, second = central_points(ds, 8), central_points(ds, 8)
        assert (first.entries, first.p, first.labels) == (second.entries, second.p, second.labels)

    def test_within_partition_permutation_on_tie_free_column(self):
        # clear majority in each partition: shuffling inside a partition is a no-op
        col = [1.0, 1.0, 1.0, 2.0, 7.0, 7.0, 7.0, 3.0]
        ds = dataset_from_columns([col])
        base = central_points(ds, 2)
        shuffled = [1.0, 2.0, 1.0, 1.0, 3.0, 7.0, 7.0, 7.0]
        ds2 = dataset_from_columns([shuffled])
        other = central_points(ds2, 2)
        assert [(c.value, c.frequency) for c in base.entries] == [
            (c.value, c.frequency) for c in other.entries
        ]

    def test_entry_ordering_attribute_major(self):
        ds = dataset_from_columns([[1.0] * 4, ["x"] * 4])
        table = central_points(ds, 2)
        assert [(e.attribute, e.partition) for e in table.entries] == [
            ("a0", 0), ("a0", 1), ("a1", 0), ("a1", 1),
        ]

    def test_holds_less_than_the_table(self):
        # one gathered column at a time and slotted entries: the step's
        # peak stays below the columns it reads, where a grouped copy of
        # the table alone would reach them
        ds, _ = synth_dataset(8000, 38, 3, seed=0)
        tracemalloc.start()
        try:
            central_points(ds, partition_count(ds.n_records, ds.n_attributes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(column.nbytes for column in ds.columns)

    @settings(deadline=None)
    @given(partitioned_datasets(labelled=True))
    def test_groups_rows_by_class_itself(self, drawn):
        ds, _, p = drawn
        table, grouped = central_points(ds, p), central_points(group_by_label(ds), p)
        assert (table.entries, table.p, table.labels) == (grouped.entries, grouped.p, grouped.labels)


def majority_per_slice(labels, p):
    """The label of each of p equal slices of the labels grouped by class
    (the last slice takes the remainder), counted by hand; an exact tie
    counts as attack."""
    grouped = [v for v in labels if v == 0] + [v for v in labels if v == 1]
    size = len(grouped) // p
    out = []
    for k in range(p):
        chunk = grouped[k * size:] if k == p - 1 else grouped[k * size:(k + 1) * size]
        ones = chunk.count(1)
        out.append(1 if ones >= len(chunk) - ones else 0)
    return tuple(out)


def partition_labels(labels, p):
    ds = dataset_from_columns([[0.0] * len(labels)], labels)
    return central_points(ds, p).labels


@st.composite
def labels_and_partitions(draw):
    labels = draw(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    return labels, draw(st.integers(1, len(labels)))


class TestPartitionLabels:
    @given(labels_and_partitions())
    def test_matches_majority_oracle(self, drawn):
        labels, p = drawn
        assert partition_labels(labels, p) == majority_per_slice(labels, p)

    def test_odd_last_partition_and_tie(self):
        # grouped [0, 0, 0, 0, 0, 1, 1]: slices [0, 0, 0] and the remainder
        # [0, 0, 1, 1], a tie that counts as attack
        labels = [1, 0, 0, 1, 0, 0, 0]
        assert partition_labels(labels, 2) == (0, 1)
        assert majority_per_slice(labels, 2) == (0, 1)
