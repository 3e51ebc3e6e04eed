import csv
import hashlib
import io
import json
import math
import random
import re
import tracemalloc
from collections import Counter
from contextlib import closing
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cparm import dataset as loader
from cparm.dataset import (
    NUMERIC,
    AttributeSchema,
    Dataset,
    SynthManifest,
    _Column,
    _plain_numbers,
    conform,
    load_csv,
    project,
    split,
    synth_dataset,
    write_csv,
)
from cparm.errors import (
    ConfigError,
    CparmError,
    EmptyDatasetError,
    MalformedCsvError,
    SchemaMismatchError,
    TooFewRecordsError,
    UnknownLabelColumnError,
    UnmappableLabelError,
    UnreadableCsvError,
)
from oracles import (
    STRICT_NUMBER,
    cells,
    dataset,
    histogram_mutual_information,
    is_finite_number,
    load_csv_reference,
    row_major_synth,
    table,
    transpose,
    typed_text,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_minimal_file(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n0.1,tcp,0\n0.2,udp,1\n")
        ds = load_csv(path, "label")
        assert [a.name for a in ds.schema] == ["dur", "proto"]
        assert [a.kind for a in ds.schema] == ["numeric", "categorical"]
        assert transpose(cells(ds)) == ((0.1, "tcp"), (0.2, "udp"))
        assert tuple(ds.labels) == (0, 1)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n0.1,tcp,0\n0.2,udp,1\n0.3,tcp\n")
        with pytest.raises(MalformedCsvError) as err:
            load_csv(path, "label")
        assert err.value.row_index == 3

    def test_ten_rows_against_hand_parse(self, tmp_path):
        # expected dataset written out by hand, independent of the loader
        rows = [
            ("3", "http", "normal"), ("1.5", "smtp", "attack"),
            ("0", "http", "attack"), ("2", "ftp", "normal"),
            ("9", "http", "normal"), ("4.25", "dns", "attack"),
            ("7", "dns", "normal"), ("8", "ssh", "attack"),
            ("6", "http", "normal"), ("5", "ftp", "attack"),
        ]
        text = "dur,service,label\n" + "\n".join(",".join(r) for r in rows) + "\n"
        ds = load_csv(write(tmp_path, text), "label")
        assert transpose(cells(ds)) == tuple(
            (float(dur), service) for dur, service, _ in rows
        )
        assert tuple(ds.labels) == tuple(0 if lab == "normal" else 1 for _, _, lab in rows)

    def test_label_token_variants(self, tmp_path):
        text = "x,label\n1,benign\n2,neptune\n3,Normal\n4,anomaly\n5,probe\n"
        ds = load_csv(write(tmp_path, text), "label")
        assert tuple(ds.labels) == (0, 1, 0, 1, 1)

    def test_unknown_label_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(UnknownLabelColumnError):
            load_csv(path, "label")

    def test_unmappable_label(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n2,weird\n")
        with pytest.raises(UnmappableLabelError) as err:
            load_csv(path, "label")
        assert err.value.row_index == 2
        assert err.value.token == "weird"

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableCsvError):
            load_csv(tmp_path / "absent.csv", "label")

    def test_quoted_fields(self, tmp_path):
        path = write(tmp_path, 'a,label\n"tok,with,commas",0\n"say ""hi""",1\n')
        ds = load_csv(path, "label")
        assert transpose(cells(ds)) == (("tok,with,commas",), ('say "hi"',))

    def test_roundtrip_identity(self, tmp_path):
        text = "dur,proto,label\n0.1,tcp,0\n,udp,1\n2.5e-3,tcp,1\n"
        first = load_csv(write(tmp_path, text), "label")
        write_csv(first, tmp_path / "again.csv")
        second = load_csv(tmp_path / "again.csv", "label")
        assert table(first) == table(second)  # name excluded from comparison

    def test_roundtrip_of_number_tokens_is_numeric(self, tmp_path):
        # write_csv round-trips a categorical column only if it holds a
        # token that is no number: the tokens "1" and "2" read back as numbers
        first = dataset((AttributeSchema("a", "categorical"),), (["2", "1", None, "2"],),
                        (0, 1, 0, 1))
        assert first.vocabularies == (("1", "2"),)
        write_csv(first, tmp_path / "again.csv")
        second = load_csv(tmp_path / "again.csv", "label")
        assert second.schema == (AttributeSchema("a", "numeric"),)
        assert second.vocabularies == ((),)
        np.testing.assert_array_equal(second.columns[0], [2.0, 1.0, math.nan, 2.0])


def inferred_kind(tmp_path, *cells):
    """The kind load_csv gives a one-column file holding ``cells``."""
    text = "a,label\n" + "".join(f"{cell},0\n" for cell in cells)
    return load_csv(write(tmp_path, text), "label").schema[0].kind


class TestInferSchema:
    def test_all_numeric(self, tmp_path):
        assert inferred_kind(tmp_path, "1", "2.5", "3") == "numeric"

    def test_one_token_forces_categorical(self, tmp_path):
        assert inferred_kind(tmp_path, "tcp", "2.5") == "categorical"

    def test_empty_cells_ignored_for_kind(self, tmp_path):
        assert inferred_kind(tmp_path, "", "7") == "numeric"

    def test_rejects_float_extras(self, tmp_path):
        # underscores, inf and nan are not numeric cells
        for token in ["1_0", "inf", "nan", " 7"]:
            assert inferred_kind(tmp_path, token) == "categorical"

    def test_empty_input(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_csv(write(tmp_path, "a,label\n"), "label")


class TestDatasetInvariants:
    def test_row_width_checked_on_construction(self):
        schema = (AttributeSchema("a", "numeric"), AttributeSchema("b", "numeric"))
        with pytest.raises(SchemaMismatchError):
            dataset(schema, transpose(((1.0,),)), (0,))

    def test_labels_length_checked(self):
        schema = (AttributeSchema("a", "numeric"),)
        with pytest.raises(SchemaMismatchError):
            dataset(schema, transpose(((1.0,), (2.0,))), (0,))

    def test_at_least_one_record(self):
        schema = (AttributeSchema("a", "numeric"),)
        with pytest.raises(EmptyDatasetError):
            dataset(schema, (), ())

    def test_duplicate_names_rejected(self):
        schema = (AttributeSchema("a", "numeric"), AttributeSchema("a", "numeric"))
        with pytest.raises(SchemaMismatchError):
            dataset(schema, transpose(((1.0, 2.0),)), (0,))

    @pytest.mark.parametrize("labels", [(0, 2), (-1, 0)])
    def test_labels_are_zero_or_one(self, labels):
        schema = (AttributeSchema("a", "numeric"),)
        with pytest.raises(SchemaMismatchError, match="labels must be 0 or 1"):
            dataset(schema, transpose(((1.0,), (2.0,))), labels)

    @pytest.mark.parametrize("vocabulary", [("x", "x"), ("y", "x"), ("x", 1)],
                             ids=["duplicate", "out_of_order", "not_a_string"])
    def test_vocabulary_is_sorted_distinct_strings(self, vocabulary):
        # a second code for one token would be a second value to the central
        # points, a second one-hot column and a second NB table entry
        codes = np.array([0, 1], dtype=np.int32)
        with pytest.raises(SchemaMismatchError, match="vocabulary not sorted, distinct strings"):
            Dataset([AttributeSchema("a", "categorical")], [codes], [vocabulary], [0, 1])


def make_dataset(n):
    schema = (AttributeSchema("x", "numeric"),)
    labels = tuple(i % 2 for i in range(n))
    return dataset(schema, (tuple(float(i) for i in range(n)),), labels)


class TestProject:
    def test_columns_follow_the_given_names(self):
        schema = tuple(map(AttributeSchema, ["a", "b", "c"], ["numeric", "categorical", "numeric"]))
        ds = dataset(schema, ([1.0, 2.0], ["x", "y"], [3.0, None]), (0, 1))
        shown = project(ds, ["c", "b"])
        assert shown.schema == (schema[2], schema[1])
        assert cells(shown) == ((3.0, None), ("x", "y"))
        assert shown.vocabularies == ((), ("x", "y"))
        assert shown.labels.tolist() == [0, 1]

    def test_unknown_name_rejected(self):
        # project is the one place a name is looked up, and its error the one
        # an unknown name gets
        with pytest.raises(SchemaMismatchError, match="nope"):
            project(make_dataset(2), ["x", "nope"])


class TestSplit:
    def test_ratio_cardinality(self):
        train, test = split(make_dataset(10), 0.8, seed=42)
        assert train.n_records == 8 and test.n_records == 2
        combined = sorted(transpose(cells(train)) + transpose(cells(test)))
        assert combined == sorted(transpose(cells(make_dataset(10))))

    def test_two_rows_boundary(self):
        train, test = split(make_dataset(2), 0.5, seed=0)
        assert train.n_records == 1 and test.n_records == 1

    def test_deterministic(self):
        a = split(make_dataset(50), 0.7, seed=123)
        b = split(make_dataset(50), 0.7, seed=123)
        assert [table(d) for d in a] == [table(d) for d in b]

    def test_high_fraction_keeps_test_non_empty(self):
        train, test = split(make_dataset(5), 0.99, seed=1)
        assert test.n_records >= 1

    def test_too_few_records(self):
        with pytest.raises(TooFewRecordsError):
            split(make_dataset(1), 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        # split checks its own arguments, a bad seed too
        for fraction, seed in [(1.0, 0), (0.0, 0), (0.5, -1), (0.5, 2**64)]:
            with pytest.raises(ConfigError):
                split(make_dataset(10), fraction, seed)


# (records, noise, signal, seed) -> sha256 of write_csv's bytes and the
# manifest's JSON, recorded before synth_dataset built its columns in one pass
PINNED_SYNTH = {
    (4, 0, 1, 0): "a4bc3f412cfbb6f13c49e681769a39cdf2e1b2666cf0e094a76521486844990a",
    (50, 0, 5, 3): "009e3e265398d88c60cbc363721e9caa4d8186af1f5bf0234bdfe38a5d40bf82",
    (50, 7, 3, 2**64 - 1): "d1c1100f83f28170a2921b8a77ee8f99a877d269faa5241555ae3bad927c1a51",
    (301, 9, 4, 11): "5f606088cf6fa5b7b6a7b46490218e5354baa590dba2b2955c507d7ea3b47c3f",
    (1000, 3, 6, 12345): "a3f844d367803a39589f82139b5514460d480206519fa2906b0d954f32e0358e",
    (2000, 16, 4, 7): "be3d2b05ac87b89f36c86e1fcbf09319a8e5d553c5ca73f0ca523a2432b9d216",
}


class TestSynthDataset:
    def test_counts(self):
        ds, manifest = synth_dataset(1000, 16, 4, seed=7)
        assert ds.n_attributes == 20
        assert ds.n_records == 1000
        assert sum(ds.labels) == 500
        assert len(manifest.signal_features) == 4

    def test_minimal(self):
        ds, manifest = synth_dataset(4, 0, 1, seed=1)
        assert ds.n_records == 4
        assert ds.n_attributes == 1
        assert manifest.signal_features == (ds.schema[0].name,)

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            synth_dataset(100, 5, 0, seed=0)
        with pytest.raises(ConfigError):
            synth_dataset(3, 5, 1, seed=0)
        with pytest.raises(ConfigError):
            synth_dataset(100, 5, 1, seed=-3)

    def test_bit_identical_across_runs(self):
        a, ma = synth_dataset(200, 6, 2, seed=99)
        b, mb = synth_dataset(200, 6, 2, seed=99)
        assert table(a) == table(b) and ma == mb

    def test_signal_features_carry_information(self):
        ds, manifest = synth_dataset(2000, 16, 4, seed=7)
        labels = ds.labels.tolist()
        mi = {
            a.name: histogram_mutual_information(list(column), labels)
            for a, column in zip(ds.schema, cells(ds))
        }
        signal = set(manifest.signal_features)
        worst_signal = min(mi[name] for name in signal)
        best_noise = max(mi[name] for name in mi if name not in signal)
        assert worst_signal > best_noise

    def test_manifest_json_shape(self):
        _, manifest = synth_dataset(10, 1, 1, seed=5)
        parsed = json.loads(manifest.to_json())
        assert set(parsed) == {"signal_features", "seed"}
        assert parsed["seed"] == 5

    @pytest.mark.parametrize(
        "n_records, n_noise, n_signal, seed",
        [(4, 0, 1, 1), (4, 3, 2, 0), (37, 0, 5, 8), (101, 7, 3, 2**64 - 1),
         (250, 36, 4, 10), (250, 6, 2, 11), (250, 38, 3, 12)],
    )
    def test_matches_row_major_stream(self, n_records, n_noise, n_signal, seed):
        # the three 250-row shapes have the benchmark workloads' widths
        ds, manifest = synth_dataset(n_records, n_noise, n_signal, seed)
        schema, columns, labels, signal = row_major_synth(n_records, n_noise, n_signal, seed)
        assert ds.schema == schema
        got = cells(ds)
        assert [list(map(repr, c)) for c in got] == [list(map(repr, c)) for c in columns]
        assert tuple(ds.labels) == labels
        assert manifest == SynthManifest(signal, seed)

    @pytest.mark.parametrize("spec", PINNED_SYNTH, ids=lambda spec: "-".join(map(str, spec)))
    def test_synth_output_is_pinned(self, tmp_path, spec):
        ds, manifest = synth_dataset(*spec)
        write_csv(ds, tmp_path / "synth.csv")
        data = (tmp_path / "synth.csv").read_bytes() + manifest.to_json().encode()
        assert hashlib.sha256(data).hexdigest() == PINNED_SYNTH[spec]

    def test_synth_roundtrips_through_csv(self, tmp_path):
        ds, _ = synth_dataset(50, 3, 2, seed=11)
        write_csv(ds, tmp_path / "synth.csv")
        again = load_csv(tmp_path / "synth.csv", "label")
        assert table(again) == table(ds)


class TestSplitProperties:
    def test_union_is_input_multiset_many_seeds(self):
        rng = random.Random(0)
        ds = make_dataset(37)
        for _ in range(20):
            train, test = split(ds, rng.uniform(0.1, 0.9), seed=rng.getrandbits(32))
            assert sorted(transpose(cells(train)) + transpose(cells(test))) == sorted(
                transpose(cells(ds))
            )
            assert train.n_records >= 1 and test.n_records >= 1


# --- behaviour lock: write/load round trip, split, conform --------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a token the strict numeric syntax rejects: it starts with a letter
WORD = st.from_regex(r"[A-Za-z][A-Za-z0-9_ ,\"':.-]{0,6}", fullmatch=True)
NAMES = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True).filter(lambda s: s != "label"),
    min_size=1, max_size=4, unique=True,
)
# Tokens of plain-number characters only, some numbers and some not.
PLAIN_TEXT = st.text("0123456789+-.eE", min_size=1, max_size=8)
PLAIN_EDGES = st.sampled_from(
    ["1e", ".", "+-", "-0", "1e999", "-1e999", "4.9e-324", "2e-324", "1e-400", ""]
)
LONG_MANTISSAS = st.integers(10**29, 10**30 - 1).map(str)
# Tokens outside the plain characters, which float() accepts and the strict
# syntax rejects (whitespace, "_", "nan", "inf", Arabic-Indic digits).
FLOAT_EXTRAS = st.sampled_from([" 7", "1_0", "nan", "inf", "٣", "1\n", "-٣.5"])


@st.composite
def loadable_datasets(draw, min_rows=1, max_rows=12):
    """Datasets that load_csv reads back as they are: every categorical column
    holds a non-numeric token, and every numeric cell is a finite float."""
    names = draw(NAMES)
    n = draw(st.integers(min_rows, max_rows))
    kinds, columns = [], []
    for _ in names:
        if draw(st.booleans()):
            kinds.append("numeric")
            columns.append(draw(st.lists(st.none() | FINITE, min_size=n, max_size=n)))
        else:
            kinds.append("categorical")
            col = draw(st.lists(st.none() | WORD | FINITE.map(repr), min_size=n, max_size=n))
            col[draw(st.integers(0, n - 1))] = draw(WORD)
            columns.append(col)
    schema = tuple(map(AttributeSchema, names, kinds))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return dataset(schema, columns, tuple(labels))


class TestStageProperties:
    @settings(deadline=None)
    @given(loadable_datasets())
    def test_write_then_load_round_trips(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("rt") / "data.csv"
        write_csv(ds, path)
        assert table(load_csv(path, "label")) == table(ds)

    @settings(deadline=None)
    @given(
        loadable_datasets(min_rows=2, max_rows=30),
        st.floats(0.01, 0.99),
        st.integers(0, 2**64 - 1),
    )
    def test_split_partitions_rows_with_labels(self, ds, fraction, seed):
        train, test = split(ds, fraction, seed)

        def pairs(d):
            return Counter(zip(transpose(cells(d)), d.labels.tolist()))

        assert pairs(train) + pairs(test) == pairs(ds)
        assert train.n_records == min(max(1, math.ceil(ds.n_records * fraction)), ds.n_records - 1)
        assert train.schema == test.schema == ds.schema

    @pytest.mark.parametrize("typed_by", ["conform", "load_csv"])
    @settings(deadline=None, max_examples=300)
    @example(["٣", "3"])
    @given(st.lists(
        st.text("0123456789.+-eE", min_size=1, max_size=6)
        | st.text("0123456789.+-eE \n_nai\u0663", min_size=1, max_size=6),
        min_size=1, max_size=8,
    ))
    def test_numeric_text_follows_the_strict_syntax(self, tmp_path_factory, typed_by, tokens):
        # tokens near the strict number syntax, some only of its characters
        # ("1e", "+", "-.") and some with characters float() accepts but the
        # syntax does not (" 1", "1_0", "nan", "\n1"); a number that
        # overflows float64 ("9e999") is missing too, typed by conform or
        # by load_csv under a numeric schema
        schema = (AttributeSchema("x", "numeric"),)
        if typed_by == "conform":
            ds = dataset((AttributeSchema("x", "categorical"),), [tokens], [0] * len(tokens))
            numeric = conform(ds, schema)
        else:
            path = tmp_path_factory.mktemp("numeric") / "data.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")  # quotes "1\n"
                writer.writerows([["x", "label"]] + [[t, "0"] for t in tokens])
            numeric = load_csv(path, "label", schema)
        want = [float(t) if is_finite_number(t) else None for t in tokens]
        assert [repr(v) for v in cells(numeric)[0]] == [repr(v) for v in want]

    @settings(deadline=None, max_examples=300)
    @example(["٣"])  # a non-ASCII digit: float() reads 3.0, the column is categorical
    @given(st.lists(PLAIN_TEXT | PLAIN_EDGES | LONG_MANTISSAS | FLOAT_EXTRAS, min_size=1,
                    max_size=8))
    def test_inferred_kind_follows_the_strict_syntax(self, tmp_path_factory, tokens):
        path = tmp_path_factory.mktemp("kind") / "data.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")  # quotes "1\n"
            writer.writerows([["x", "label"]] + [[t, "0"] for t in tokens])
        ds = load_csv(path, "label")
        column = ds.columns[0]
        if not all(is_finite_number(t) for t in tokens if t):
            assert ds.schema[0].kind == "categorical"
            assert cells(ds)[0] == tuple(t or None for t in tokens)
            return
        assert ds.schema[0].kind == "numeric"
        assert [repr(x) for x in column.tolist()] == [repr(float(t or "nan")) for t in tokens]
        missing = np.array([t == "" for t in tokens])
        assert (column[missing].view(np.uint64) == np.array(math.nan).view(np.uint64)).all()

    @settings(max_examples=500)
    @given(st.text("0123456789+-.eE", max_size=12))
    @example("1e999")  # overflows to inf, so it is no number
    @example("-1e999")
    @example("4.9e-324")  # the smallest subnormal
    @example("2e-324")  # rounds down to 0.0
    @example("1e-400")
    @example("1" * 30 + "e-30")
    def test_plain_text_parses_exactly_where_the_strict_syntax_matches(self, t):
        # the two premises of parsing a plain-number column in one pass:
        # within its alphabet float() accepts the strict syntax and nothing
        # else, and the one-pass parse gives float()'s bits; a token that
        # overflows to inf is no number, so the column takes the other path
        try:
            want = float(t)
        except ValueError:
            want = None
        assert (re.fullmatch(STRICT_NUMBER, t) is not None) == (want is not None)
        parsed = _plain_numbers([t, ""])
        if t and (want is None or math.isinf(want)):
            assert parsed is None
            return
        bits = np.array([math.nan if want is None else want, math.nan]).view(np.uint64)
        assert (parsed.view(np.uint64) == bits).all()

    @settings(max_examples=300)
    @given(st.lists(
        PLAIN_TEXT | PLAIN_EDGES.filter(bool) | LONG_MANTISSAS | FINITE.map(repr)
        | st.integers(-10**20, 10**20).map(str),
        min_size=1, max_size=8,
    ))
    def test_blank_free_plain_numbers_are_each_tokens_number(self, tokens):
        # a chunk with no blank cell is parsed by numpy in one call; it must
        # give float()'s bits for every token, or None if any token is none
        parsed = _plain_numbers(tokens)
        if not all(map(is_finite_number, tokens)):
            assert parsed is None
        else:
            numbers = np.array([float(t) for t in tokens])
            assert parsed.view(np.uint64).tolist() == numbers.view(np.uint64).tolist()

    @settings(max_examples=300)
    @example(["1.5", "?", "2", "?"])  # every non-number fails the character check
    @example(["1.5", "?", "1e", ".", "1e400", ""])  # some pass it and make no number
    @given(st.lists(
        st.sampled_from(["?", "1e", ".", "1e400", "", "-", "tcp"]) | FINITE.map(repr),
        min_size=1, max_size=12,
    ))
    def test_a_numeric_chunk_blanks_each_non_number(self, tokens):
        # under a numeric kind, a chunk holding a non-number keeps every
        # number and makes every other token missing
        column = _Column(NUMERIC)
        column.add(tokens)
        typed, _, kind = column.typed()
        assert kind == NUMERIC
        want = [float(t) if is_finite_number(t) else math.nan for t in tokens]
        assert typed.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    @settings(deadline=None)
    @given(st.data())
    def test_conform_is_idempotent_and_types_directly(self, tmp_path_factory, data):
        names = data.draw(NAMES)
        n = data.draw(st.integers(1, 10))
        token = st.just("") | FINITE.map(repr) | WORD
        text = [data.draw(st.lists(token, min_size=n, max_size=n)) for _ in names]
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        path = tmp_path_factory.mktemp("cf") / "test.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names + ["label"])
            writer.writerows([col[i] for col in text] + [str(labels[i])] for i in range(n))
        kinds = data.draw(
            st.lists(st.sampled_from(["numeric", "categorical"]), min_size=len(names),
                     max_size=len(names))
        )
        ref = tuple(map(AttributeSchema, names, kinds))

        once = conform(load_csv(path, "label"), ref)
        direct = dataset(
            ref, [[typed_text(t, k) for t in col] for col, k in zip(text, kinds)], tuple(labels)
        )
        assert table(once) == table(direct)
        assert table(conform(once, ref)) == table(once)
        assert table(load_csv(path, "label", ref)) == table(direct)


# --- chunked reading: the same dataset as the whole-file read -----------------

# A cell the writer quotes: it holds quotes, commas and line breaks, so its
# field may span lines, and those lines may span blocks.
QUOTED = st.lists(st.sampled_from(['"', ",", "\n", "\r\n", "q"]), min_size=1, max_size=4).map(
    "".join
)
# Tokens that are no number: a word, a number float64 cannot hold, plain
# characters that make none, NSL-KDD's missing-value mark and a quoted cell.
NON_NUMBERS = st.sampled_from(["x", "1e400", ".", "?"]) | WORD | QUOTED
NUMBER_TEXT = st.just("") | FINITE.map(repr) | st.integers(-99, 99).map(str)
LABEL_TEXT = st.sampled_from(["0", "1", "normal", "attack", "neptune"])


def csv_line(cells, quoting=csv.QUOTE_MINIMAL):
    """One record without its line ending; a cell holding a quote, a comma or
    a line break is quoted (with ``quoting`` QUOTE_ALL, every cell)."""
    out = io.StringIO()
    csv.writer(out, quoting=quoting).writerow(cells)  # its "\r\n" ending quotes "\r" and "\n"
    return out.getvalue().removesuffix("\r\n")


@st.composite
def chunked_files(draw):
    """(file bytes, column names, training kinds or None). Columns of numbers
    and blanks, some with non-numbers at any row, quoted cells among them;
    now and then a row with every cell quoted; blank lines anywhere; a BOM
    or none; LF, CRLF or CR endings; the label column at any position."""
    names = draw(NAMES)
    n = draw(st.integers(1, 16))
    columns = []
    for _ in names:
        column = draw(st.lists(NUMBER_TEXT, min_size=n, max_size=n))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            column[i] = draw(NON_NUMBERS)
        columns.append(column)
    labels = draw(st.lists(LABEL_TEXT, min_size=n, max_size=n))
    at = draw(st.integers(0, len(names)))
    lines = [csv_line([*names[:at], "label", *names[at:]])]
    for *cells, label in zip(*columns, labels):
        lines += [""] * draw(st.integers(0, 2))
        quoting = csv.QUOTE_ALL if draw(st.integers(0, 7)) == 0 else csv.QUOTE_MINIMAL
        lines.append(csv_line([*cells[:at], label, *cells[at:]], quoting))
    lines += [""] * draw(st.integers(0, 2))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + end
    kinds = draw(st.none() | st.lists(
        st.sampled_from(["numeric", "categorical"]), min_size=len(names), max_size=len(names)
    ))
    return text.encode("utf-8"), names, kinds


def assert_identical(got, want):
    """The same schema, vocabularies, and array dtypes and bytes."""
    assert got.schema == want.schema
    assert got.vocabularies == want.vocabularies
    for a, b in zip((*got.columns, got.labels), (*want.columns, want.labels)):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


def rows_with(row, cells):
    """Twelve data rows of dur,proto,label, with data row ``row`` replaced."""
    rows = [[str(i), ("tcp", "udp")[i % 2], str(i % 2)] for i in range(12)]
    rows[row - 1] = cells
    return rows


def write_rows(path, rows, blank_before, encoding="utf-8"):
    """The rows under their header, two blank lines before data row
    ``blank_before``."""
    lines = ["dur,proto,label"]
    for i, row in enumerate(rows, start=1):
        lines += ["", ""] * (i == blank_before)
        lines.append(",".join(row))
    path.write_bytes(("\n".join(lines) + "\n").encode(encoding))
    return path


class TestChunkedRead:
    @settings(deadline=None, max_examples=300)
    @example((b"a,label\n1,0\n\n2,1\n1e400,0\n", ["a"], None), 2)  # a late overflow
    @example((b"\xef\xbb\xbfa,label\r\n?,0\r\n\r\n2,1\r\n.,0\r\n", ["a"], ["numeric"]), 1)
    @given(chunked_files(), st.integers(1, 5))
    def test_equals_the_whole_file_read(self, tmp_path_factory, spec, read_rows):
        data, names, kinds = spec
        path = tmp_path_factory.mktemp("chunks") / "data.csv"
        path.write_bytes(data)
        schema = None if kinds is None else tuple(map(AttributeSchema, names, kinds))
        # monkeypatch would span every example of the test, so patch per example;
        # a budget of read_rows rows of the file's width (the label too)
        with patch.object(loader, "_BLOCK_CELLS", read_rows * (len(names) + 1)):
            got = load_csv(path, "label", schema)
        assert_identical(got, load_csv_reference(path, "label", schema))

    @pytest.mark.parametrize("read_rows", [1, 2, 4096])
    @pytest.mark.parametrize("data", [
        b"a,b,label\r1,x,0\r\r2,y,1\r3,z,0\r",
        b"a,b,label\n1,x,0\n2,y\x00,1\n3,z,0\n",
        b"a,b,label\n1,x,0\n2,y,1\n3,\x00,0",
    ], ids=["cr_endings", "nul_byte", "nul_in_the_last_line"])
    def test_a_cr_or_nul_file_reads_as_the_whole_file_read(self, tmp_path, data, read_rows):
        # whatever this Python's csv module makes of a NUL (a character or an
        # error), both reads make the same of it
        path = tmp_path / "data.csv"
        path.write_bytes(data)

        def outcome(load):
            try:
                return load(path, "label")
            except CparmError as exc:
                return type(exc), str(exc)

        with patch.object(loader, "_BLOCK_CELLS", read_rows * 3):
            got = outcome(load_csv)
        want = outcome(load_csv_reference)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_identical(got, want)

    @pytest.mark.parametrize("read_rows", [1, 3, 4096])
    @pytest.mark.parametrize("cells, encoding, message", [
        (["7", "tcp"], "utf-8", "at data row 8: expected 3 fields, got 2"),
        (["7", "tcp", "martian"], "utf-8", "at data row 8 is not mappable"),
        (["7", "café", "1"], "latin-1", "is not UTF-8 text (byte 0xe9"),
        (["7", "x" * (csv.field_size_limit() + 1), "1"], "utf-8", "line 11: field larger"),
    ], ids=["ragged_row", "unmappable_label", "latin1_byte", "oversized_field"])
    def test_one_fault_in_a_later_chunk_reads_as_before(
        self, tmp_path, monkeypatch, read_rows, cells, encoding, message
    ):
        path = write_rows(tmp_path / "data.csv", rows_with(8, cells), 8, encoding)
        monkeypatch.setattr(loader, "_BLOCK_CELLS", read_rows * 3)  # dur,proto,label
        with pytest.raises(CparmError) as got:
            load_csv(path, "label")
        with pytest.raises(CparmError) as want:
            load_csv_reference(path, "label")
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert message in str(got.value)

    @pytest.mark.parametrize("read_rows", [1, 3, 4096])
    def test_the_first_of_several_faults_is_reported(self, tmp_path, monkeypatch, read_rows):
        # a bad label at data row 5 comes before a ragged row at 6, which the
        # whole-file read reported first
        rows = rows_with(5, ["4", "tcp", "martian"])
        rows[5] = ["5", "udp"]
        path = write_rows(tmp_path / "data.csv", rows, 5)
        monkeypatch.setattr(loader, "_BLOCK_CELLS", read_rows * 3)  # dur,proto,label
        with pytest.raises(UnmappableLabelError) as err:
            load_csv(path, "label")
        assert err.value.row_index == 5
        with pytest.raises(MalformedCsvError):
            load_csv_reference(path, "label")

    @pytest.mark.parametrize("read_rows", [2, 4096])
    def test_a_long_row_and_a_short_row_are_no_two_rows(self, tmp_path, monkeypatch, read_rows):
        # data rows 3 and 4 hold two rows' worth of fields between them
        rows = rows_with(3, ["2", "tcp", "0", "x"])
        rows[3] = ["3", "1"]
        path = write_rows(tmp_path / "data.csv", rows, 0)
        monkeypatch.setattr(loader, "_BLOCK_CELLS", read_rows * 3)  # dur,proto,label
        with pytest.raises(MalformedCsvError) as err:
            load_csv(path, "label")
        assert err.value.row_index == 3
        assert "expected 3 fields, got 4" in str(err.value)

    def test_a_late_column_returns_the_second_read_whole(self, tmp_path, monkeypatch):
        # the late "x" makes column a categorical, so the file is read again,
        # and that read, of the grown file, is the one returned
        path = write(tmp_path, "a,label\n1,0\n2,1\nx,0\n")
        monkeypatch.setattr(loader, "_BLOCK_CELLS", 2 * 2)  # two rows of a,label
        read_chunks, calls = loader._read_chunks, []

        def grow_then_read(p):
            calls.append(p)
            if len(calls) == 2:
                with p.open("a", encoding="utf-8") as fh:
                    fh.write("y,1\n")
            return read_chunks(p)

        monkeypatch.setattr(loader, "_read_chunks", grow_then_read)
        got = load_csv(path, "label")
        assert len(calls) == 2
        want = load_csv_reference(path, "label", [AttributeSchema("a", "categorical")])
        assert_identical(got, want)
        assert got.n_records == 4  # Dataset holds every column to the labels' length

    @pytest.mark.parametrize("text, schema, reads", [
        ("a,b,label\n1,u,0\n2,v,1\n3,w,0\n", None, 1),
        ("a,b,label\n1,u,0\n2,v,1\n3,w,0\n", [("a", "categorical"), ("b", "numeric")], 1),
        ("a,b,label\n1,u,0\n2,v,1\nx,w,0\n", None, 2),
    ], ids=["inferred", "under_a_schema", "late_column"])
    def test_only_a_late_column_reads_the_file_twice(
        self, tmp_path, monkeypatch, text, schema, reads
    ):
        path = write(tmp_path, text)
        monkeypatch.setattr(loader, "_BLOCK_CELLS", 2 * 3)  # two rows of a,b,label
        read_chunks, calls = loader._read_chunks, []
        monkeypatch.setattr(loader, "_read_chunks", lambda p: calls.append(p) or read_chunks(p))
        if schema is not None:
            schema = [AttributeSchema(*a) for a in schema]
        assert_identical(load_csv(path, "label", schema), load_csv_reference(path, "label", schema))
        assert len(calls) == reads

    @pytest.mark.parametrize("budget, rows", [
        (1, [1] * 10), (3, [1] * 10), (5, [1] * 10), (6, [2] * 5), (7, [2] * 5),
        (12, [4, 4, 2]), (30, [10]),
    ])
    def test_a_block_holds_the_budget_over_the_width(self, tmp_path, monkeypatch, budget, rows):
        path = write_rows(tmp_path / "data.csv", [[str(i), "tcp", "0"] for i in range(10)], 4)
        monkeypatch.setattr(loader, "_BLOCK_CELLS", budget)
        with closing(loader._read_chunks(path)) as chunks:
            assert len(next(chunks)) == 3
            assert [len(text[0]) for _, text in chunks] == rows

    def test_the_default_block_of_a_42_field_file_is_780_rows(self, tmp_path):
        ds, _ = synth_dataset(2000, 37, 4, seed=3)
        write_csv(ds, tmp_path / "data.csv")
        with closing(loader._read_chunks(tmp_path / "data.csv")) as chunks:
            assert len(next(chunks)) == 42
            assert [(first, len(text[0])) for first, text in chunks] == [
                (0, 780), (780, 780), (1560, 440)
            ]

    def test_a_load_holds_about_one_block_of_text(self, tmp_path):
        # 8,000 x 42 cells: the typed arrays are about 2 MB and one block of
        # 32,768 cells of text about 2.4 MB; with 4,096-row blocks, and with
        # each block's text held while the next was read, this load's traced
        # peak was over 20 MB
        ds, _ = synth_dataset(8000, 37, 4, seed=0)
        write_csv(ds, tmp_path / "data.csv")
        tracemalloc.start()
        try:
            got = load_csv(tmp_path / "data.csv", "label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        typed = sum(column.nbytes for column in got.columns) + got.labels.nbytes
        assert peak < typed + 4_000_000

    @pytest.fixture
    def csv_rows(self, monkeypatch):
        """The rows ``csv.reader`` yields while the test runs."""
        rows, reader = [], csv.reader

        class Spy:
            def __init__(self, lines):
                self.inner = reader(lines)

            def __iter__(self):
                return self

            def __next__(self):
                rows.append(next(self.inner))
                return rows[-1]

            line_num = property(lambda self: self.inner.line_num)

        monkeypatch.setattr(csv, "reader", Spy)
        return rows

    @pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_a_written_file_is_split_after_its_header(self, tmp_path, csv_rows, end):
        ds, _ = synth_dataset(2000, 37, 4, seed=3)  # 3 blocks of 42 fields
        write_csv(ds, tmp_path / "data.csv")
        path = tmp_path / "data.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", end))
        got = load_csv(path, "label")
        assert csv_rows == [[*ds.attribute_names(), "label"]]
        assert table(got) == table(ds)

    def test_the_block_with_the_first_quote_and_the_rest_go_to_csv_reader(
        self, tmp_path, monkeypatch, csv_rows
    ):
        # two-row blocks; the first quote is in data row 5, the third block
        rows = rows_with(5, ["4", '"t,cp"', "0"])
        path = write_rows(tmp_path / "data.csv", rows, 0)
        monkeypatch.setattr(loader, "_BLOCK_CELLS", 2 * 3)  # dur,proto,label
        got = load_csv(path, "label")
        want = [["dur", "proto", "label"], ["4", "t,cp", "0"], *rows[5:]]
        assert csv_rows == want
        assert_identical(got, load_csv_reference(path, "label"))

    def test_a_blank_line_sends_its_block_and_the_rest_to_csv_reader(
        self, tmp_path, monkeypatch, csv_rows
    ):
        # two-row blocks; the second holds data row 3 and the first of two
        # blank lines, which csv.reader reads as no row
        rows = rows_with(1, ["0", "tcp", "0"])  # data row 1 as it is
        path = write_rows(tmp_path / "data.csv", rows, 4)
        monkeypatch.setattr(loader, "_BLOCK_CELLS", 2 * 3)  # dur,proto,label
        got = load_csv(path, "label")
        assert csv_rows == [["dur", "proto", "label"], rows[2], [], [], *rows[3:]]
        assert_identical(got, load_csv_reference(path, "label"))

    def test_a_trailing_blank_line_sends_only_the_last_block_to_csv_reader(
        self, tmp_path, monkeypatch, csv_rows
    ):
        # five-row blocks of twelve rows and a blank line: the third block
        # holds data rows 11 and 12 and the blank line
        rows = rows_with(1, ["0", "tcp", "0"])  # data row 1 as it is
        path = write_rows(tmp_path / "data.csv", rows, 0)
        path.write_bytes(path.read_bytes() + b"\n")
        monkeypatch.setattr(loader, "_BLOCK_CELLS", 5 * 3)  # dur,proto,label
        got = load_csv(path, "label")
        assert csv_rows == [["dur", "proto", "label"], *rows[10:], []]
        assert_identical(got, load_csv_reference(path, "label"))

    @pytest.mark.parametrize("budget", [1, 7])
    def test_write_csv_text_does_not_depend_on_the_block(self, tmp_path, monkeypatch, budget):
        ds, _ = synth_dataset(50, 3, 2, seed=11)
        write_csv(ds, tmp_path / "whole.csv")  # 50 rows of 6 fields: one block
        monkeypatch.setattr(loader, "_BLOCK_CELLS", budget)
        write_csv(ds, tmp_path / "blocks.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
