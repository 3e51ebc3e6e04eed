import json
import random

import pytest

from cparm.dataset import (
    AttributeSchema,
    Dataset,
    SplitSpec,
    infer_schema,
    load_csv,
    split,
    synth_dataset,
    write_csv,
)
from cparm.errors import (
    EmptyDatasetError,
    InvalidSpecError,
    MalformedCsvError,
    SchemaMismatchError,
    TooFewRecordsError,
    UnknownLabelColumnError,
    UnmappableLabelError,
)
from oracles import histogram_mutual_information


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
        assert ds.records == ((0.1, "tcp"), (0.2, "udp"))
        assert ds.labels == (0, 1)

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
        assert ds.records == tuple(
            (float(dur), service) for dur, service, _ in rows
        )
        assert ds.labels == tuple(0 if lab == "normal" else 1 for _, _, lab in rows)

    def test_label_token_variants(self, tmp_path):
        text = "x,label\n1,benign\n2,neptune\n3,Normal\n4,anomaly\n5,probe\n"
        ds = load_csv(write(tmp_path, text), "label")
        assert ds.labels == (0, 1, 0, 1, 1)

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
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv", "label")

    def test_quoted_fields(self, tmp_path):
        path = write(tmp_path, 'a,label\n"tok,with,commas",0\n"say ""hi""",1\n')
        ds = load_csv(path, "label")
        assert ds.records == (("tok,with,commas",), ('say "hi"',))

    def test_roundtrip_identity(self, tmp_path):
        text = "dur,proto,label\n0.1,tcp,0\n,udp,1\n2.5e-3,tcp,1\n"
        first = load_csv(write(tmp_path, text), "label")
        write_csv(first, tmp_path / "again.csv")
        second = load_csv(tmp_path / "again.csv", "label")
        assert first == second  # name excluded from comparison


class TestInferSchema:
    def test_all_numeric(self):
        schema = infer_schema([["1"], ["2.5"], ["3"]])
        assert schema[0].kind == "numeric"

    def test_one_token_forces_categorical(self):
        schema = infer_schema([["tcp"], ["2.5"]])
        assert schema[0].kind == "categorical"

    def test_empty_cells_ignored_for_kind(self):
        schema = infer_schema([[""], ["7"]])
        assert schema[0].kind == "numeric"

    def test_rejects_float_extras(self):
        # underscores, inf and nan are not numeric cells
        for token in ["1_0", "inf", "nan", " 7"]:
            assert infer_schema([[token]])[0].kind == "categorical"

    def test_empty_input(self):
        with pytest.raises(EmptyDatasetError):
            infer_schema([])


class TestDatasetInvariants:
    def test_row_width_checked_on_construction(self):
        schema = (AttributeSchema("a", 0, "numeric"), AttributeSchema("b", 1, "numeric"))
        with pytest.raises(SchemaMismatchError):
            Dataset(schema, ((1.0,),), (0,))

    def test_labels_length_checked(self):
        schema = (AttributeSchema("a", 0, "numeric"),)
        with pytest.raises(SchemaMismatchError):
            Dataset(schema, ((1.0,), (2.0,)), (0,))

    def test_at_least_one_record(self):
        schema = (AttributeSchema("a", 0, "numeric"),)
        with pytest.raises(EmptyDatasetError):
            Dataset(schema, (), ())

    def test_duplicate_names_rejected(self):
        schema = (AttributeSchema("a", 0, "numeric"), AttributeSchema("a", 1, "numeric"))
        with pytest.raises(SchemaMismatchError):
            Dataset(schema, ((1.0, 2.0),), (0,))


def make_dataset(n):
    schema = (AttributeSchema("x", 0, "numeric"),)
    records = tuple((float(i),) for i in range(n))
    labels = tuple(i % 2 for i in range(n))
    return Dataset(schema, records, labels)


class TestSplit:
    def test_ratio_cardinality(self):
        train, test = split(make_dataset(10), SplitSpec(0.8, seed=42))
        assert train.n_records == 8 and test.n_records == 2
        combined = sorted(train.records + test.records)
        assert combined == sorted(make_dataset(10).records)

    def test_two_rows_boundary(self):
        train, test = split(make_dataset(2), SplitSpec(0.5, seed=0))
        assert train.n_records == 1 and test.n_records == 1

    def test_deterministic(self):
        spec = SplitSpec(0.7, seed=123)
        a = split(make_dataset(50), spec)
        b = split(make_dataset(50), spec)
        assert a == b

    def test_high_fraction_keeps_test_non_empty(self):
        train, test = split(make_dataset(5), SplitSpec(0.99, seed=1))
        assert test.n_records >= 1

    def test_too_few_records(self):
        with pytest.raises(TooFewRecordsError):
            split(make_dataset(1), SplitSpec(0.5, seed=0))

    def test_bad_fraction_rejected(self):
        with pytest.raises(InvalidSpecError):
            SplitSpec(1.0, seed=0)


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
        with pytest.raises(InvalidSpecError):
            synth_dataset(100, 5, 0, seed=0)
        with pytest.raises(InvalidSpecError):
            synth_dataset(3, 5, 1, seed=0)
        with pytest.raises(InvalidSpecError):
            synth_dataset(100, 5, 1, seed=-3)

    def test_bit_identical_across_runs(self):
        a, ma = synth_dataset(200, 6, 2, seed=99)
        b, mb = synth_dataset(200, 6, 2, seed=99)
        assert a == b and ma == mb

    def test_signal_features_carry_information(self):
        ds, manifest = synth_dataset(2000, 16, 4, seed=7)
        labels = list(ds.labels)
        mi = {
            a.name: histogram_mutual_information(
                [row[a.index] for row in ds.records], labels
            )
            for a in ds.schema
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

    def test_synth_roundtrips_through_csv(self, tmp_path):
        ds, _ = synth_dataset(50, 3, 2, seed=11)
        write_csv(ds, tmp_path / "synth.csv")
        again = load_csv(tmp_path / "synth.csv", "label")
        assert again == ds


class TestSplitProperties:
    def test_union_is_input_multiset_many_seeds(self):
        rng = random.Random(0)
        ds = make_dataset(37)
        for _ in range(20):
            spec = SplitSpec(rng.uniform(0.1, 0.9), seed=rng.getrandbits(32))
            train, test = split(ds, spec)
            assert sorted(train.records + test.records) == sorted(ds.records)
            assert train.n_records >= 1 and test.n_records >= 1
