import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cparm import cli
from cparm.cli import main
from cparm.errors import (
    ConfigError,
    EmptyDatasetError,
    MalformedCsvError,
    NoFeaturesSelectedError,
    SchemaMismatchError,
    SingleClassTrainingError,
    TooFewRecordsError,
    UnknownLabelColumnError,
    UnmappableLabelError,
    UnreadableCsvError,
)
from cparm.pipeline import PipelineConfig, SourceSplit

# one more character than the csv module's default field_size_limit()
OVERSIZED_FIELD = "x" * 131_073
# a file name longer than the 255 bytes most file systems allow
LONG_NAME = "x" * 300


@pytest.fixture()
def synth_csv(tmp_path):
    out = tmp_path / "data.csv"
    code = main(["synth", "--out", str(out), "--records", "600", "--noise", "4",
                 "--signal", "2", "--seed", "9"])
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_csv_and_manifest(self, synth_csv):
        header = synth_csv.read_text().splitlines()[0]
        assert header.endswith(",label")
        manifest = json.loads(synth_csv.with_suffix(".manifest.json").read_text())
        assert manifest["seed"] == 9
        assert len(manifest["signal_features"]) == 2

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x.csv"), "--records", "10",
                     "--noise", "2", "--signal", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("out, directory, bad", [
        ("nodir/x.csv", None, "nodir/x.csv"),
        ("adir", "adir", "adir"),
        (".", None, "."),
        ("x.csv", "x.manifest.json", "x.manifest.json"),
        (f"{LONG_NAME}.csv", None, f"{LONG_NAME}.csv"),
    ], ids=["missing_directory", "out_is_a_directory", "out_is_dot", "manifest_is_a_directory",
            "name_too_long"])
    def test_unwritable_output_exits_2_before_writing(self, tmp_path, monkeypatch, capsys, out,
                                                      directory, bad):
        monkeypatch.chdir(tmp_path)
        if directory:
            (tmp_path / directory).mkdir()
        before = sorted(tmp_path.rglob("*"))
        code = main(["synth", "--out", out, "--records", "10", "--noise", "2", "--signal", "1"])
        assert code == 2
        assert f"cannot write {bad}:" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_write_exits_4_and_keeps_the_earlier_files(self, synth_csv, monkeypatch,
                                                             capsys):
        # os.replace fails as on a full disk: the earlier run's CSV and
        # manifest stay as they were, and no temp file is left beside them
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        before = {p.name: p.read_bytes() for p in synth_csv.parent.iterdir()}
        monkeypatch.setattr(os, "replace", full_disk)
        code = main(["synth", "--out", str(synth_csv), "--records", "5000", "--noise", "4",
                     "--signal", "2", "--seed", "1"])
        assert code == 4
        assert "error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in synth_csv.parent.iterdir()} == before


    def test_failed_manifest_write_leaves_no_stale_manifest(self, synth_csv, monkeypatch,
                                                            capsys):
        # the new CSV is in place when the manifest's replace fails: the
        # earlier manifest, which no longer describes it, is removed
        replace, calls = os.replace, []

        def second_call_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", second_call_fails)
        code = main(["synth", "--out", str(synth_csv), "--records", "700", "--noise", "4",
                     "--signal", "2", "--seed", "1"])
        assert code == 4
        assert "error: [Errno 28] No space left on device" in capsys.readouterr().err
        monkeypatch.setattr(os, "replace", replace)
        assert [p.name for p in synth_csv.parent.iterdir()] == ["data.csv"]
        expected = synth_csv.parent / "expected.csv"
        assert main(["synth", "--out", str(expected), "--records", "700", "--noise", "4",
                     "--signal", "2", "--seed", "1"]) == 0
        assert synth_csv.read_bytes() == expected.read_bytes()

class TestInspectCommand:
    def test_prints_schema_and_partitions(self, synth_csv, capsys):
        assert main(["inspect", str(synth_csv)]) == 0
        out = capsys.readouterr().out
        assert "records: 600" in out
        assert "attributes: 6" in out
        assert "partitions: 100" in out
        assert "numeric" in out and "categorical" in out

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.csv")]) == 3
        err = capsys.readouterr().err
        assert f"cannot read {tmp_path / 'nope.csv'}: No such file or directory" in err

    def test_directory_exits_3(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 3
        assert f"cannot read {tmp_path}: Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, encoding, message", [
        ("café", "latin-1", "is not UTF-8 text (byte 0xe9"),
        (OVERSIZED_FIELD, "utf-8", "line 3: field larger than field limit"),
    ], ids=["latin1_byte", "oversized_field"])
    def test_unreadable_file_exits_3(self, tmp_path, capsys, cell, encoding, message):
        rows = [["a", "label"], ["x", "0"], [cell, "1"], ["y", "0"]]
        path = _write(tmp_path / "data.csv", rows, encoding=encoding)
        assert main(["inspect", str(path)]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and message in err


class TestRunCommand:
    def test_full_run_writes_report(self, synth_csv, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "run", "--input", str(synth_csv), "--split-ratio", "0.8",
            "--num-features", "2", "--engines", "nb,lr", "--seed", "9",
            "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert list(report["engines"]) == ["nb", "lr"]
        assert report["config"]["seed"] == 9
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_omitted_options_take_the_config_defaults(self, synth_csv, tmp_path):
        report_path = str(tmp_path / "r.json")
        assert main(["run", "--input", str(synth_csv), "--report", report_path]) == 0
        want = PipelineConfig(SourceSplit(str(synth_csv)), report_path=report_path).to_dict()
        assert json.loads((tmp_path / "r.json").read_text())["config"] == want

    def test_train_test_mode(self, synth_csv, tmp_path):
        # reuse the same file both sides: legal, if statistically meaningless
        report_path = tmp_path / "r.json"
        code = main([
            "run", "--train", str(synth_csv), "--test", str(synth_csv),
            "--num-features", "2", "--engines", "lr", "--report", str(report_path),
        ])
        assert code == 0

    def test_conflicting_sources_exit_2(self, synth_csv, tmp_path, capsys):
        code = main([
            "run", "--input", str(synth_csv), "--train", str(synth_csv),
            "--test", str(synth_csv), "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_split_ratio_with_train_and_test_exits_2(self, synth_csv, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main([
            "run", "--train", str(synth_csv), "--test", str(synth_csv),
            "--split-ratio", "0.5", "--report", str(report),
        ])
        assert code == 2
        assert "--split-ratio applies only to --input" in capsys.readouterr().err
        assert not report.exists()

    def test_source_required(self, tmp_path):
        assert main(["run", "--report", str(tmp_path / "r.json")]) == 2

    def test_empty_engines_exit_2(self, synth_csv, tmp_path):
        code = main(["run", "--input", str(synth_csv), "--engines", ",",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_unknown_engine_exit_2(self, synth_csv, tmp_path):
        code = main(["run", "--input", str(synth_csv), "--engines", "svm",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_missing_input_exits_3(self, tmp_path):
        code = main(["run", "--input", str(tmp_path / "ghost.csv"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 3

    def test_bad_threshold_exit_2(self, synth_csv, tmp_path):
        code = main(["run", "--input", str(synth_csv), "--minsup-minconf", "0.4,2.0",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert not (tmp_path / "r.json").exists()

    def test_byte_identical_reports_modulo_timings(self, synth_csv, tmp_path):
        path = tmp_path / "report.json"
        argv = [
            "run", "--input", str(synth_csv), "--num-features", "2",
            "--engines", "em,nb,lr", "--seed", "4", "--report", str(path),
        ]
        blobs = []
        for _ in range(2):
            assert main(argv) == 0
            parsed = json.loads(path.read_bytes())
            parsed["timings_ms"] = None
            blobs.append(json.dumps(parsed, sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_dump_flags(self, synth_csv, tmp_path):
        code = main([
            "run", "--input", str(synth_csv), "--num-features", "2",
            "--engines", "lr", "--report", str(tmp_path / "r.json"),
            "--dump-centres", str(tmp_path / "c.csv"),
            "--dump-rules", str(tmp_path / "rules.csv"),
            "--dump-model", str(tmp_path / "m.json"),
        ])
        assert code == 0
        assert (tmp_path / "c.csv").exists()
        assert (tmp_path / "rules.csv").exists()
        assert "lr" in json.loads((tmp_path / "m.json").read_text())


def _rows(path):
    # synthetic cells hold no commas or quotes, so splitting on "," is exact
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def _write(path, rows, newline="\n", prefix="", encoding="utf-8"):
    text = prefix + "".join(",".join(row) + newline for row in rows)
    path.write_bytes(text.encode(encoding))
    return path


def _run(source_args, report):
    return main(["run", "--num-features", "2", "--engines", "nb,lr", "--report", str(report),
                 *source_args])


def _report_body(path):
    """The report minus its timings and the file paths echoed in its config."""
    report = json.loads(path.read_text())
    del report["timings_ms"], report["config"]["source"], report["config"]["report"]
    return report


class TestUtf8Bom:
    def test_bom_file_gives_the_same_report_as_its_plain_twin(self, synth_csv, tmp_path):
        label_first = [row[-1:] + row[:-1] for row in _rows(synth_csv)]
        plain = _write(tmp_path / "plain.csv", label_first)
        bom = _write(tmp_path / "bom.csv", label_first, prefix="\ufeff")
        assert _run(["--input", str(plain)], tmp_path / "plain.json") == 0
        assert _run(["--input", str(bom)], tmp_path / "bom.json") == 0
        assert _report_body(tmp_path / "bom.json") == _report_body(tmp_path / "plain.json")

    def test_bom_train_file_conforms_a_plain_test_file(self, synth_csv, tmp_path):
        bom = _write(tmp_path / "bom.csv", _rows(synth_csv), prefix="\ufeff")
        plain = str(synth_csv)
        assert _run(["--train", plain, "--test", plain], tmp_path / "plain.json") == 0
        assert _run(["--train", str(bom), "--test", plain], tmp_path / "bom.json") == 0
        assert _report_body(tmp_path / "bom.json") == _report_body(tmp_path / "plain.json")


def test_test_file_keeps_its_text_under_training_kinds(tmp_path):
    # one "?" makes training column `a` categorical; the test file's "0" and
    # "1" must stay those tokens, not become the unseen tokens "0.0" and "1.0"
    def rows(n, missing):
        out = [["a", "b", "label"]]
        for i in range(n):
            out.append(["?" if missing and i == 0 else str(i % 2), f"n{(i // 2) % 4}", str(i % 2)])
        return out

    train = _write(tmp_path / "train.csv", rows(200, missing=True))
    test = _write(tmp_path / "test.csv", rows(50, missing=False))
    report = tmp_path / "report.json"
    assert main(["run", "--train", str(train), "--test", str(test), "--minsup-minconf", "0.2",
                 "--num-features", "2", "--engines", "nb,lr", "--report", str(report)]) == 0
    engines = json.loads(report.read_text())["engines"]
    assert engines["nb"]["metrics"]["accuracy"] == 1.0
    assert engines["lr"]["metrics"]["accuracy"] == 1.0


def _input(edit, newline="\n", encoding="utf-8"):
    """Source arguments for one CSV: the good rows after ``edit``."""
    def build(good, work):
        path = _write(work / "data.csv", edit(_rows(good)), newline, encoding=encoding)
        return ["--input", str(path)]
    return build


def _files(edit_test):
    """Source arguments for the good rows as train and edited rows as test."""
    def build(good, work):
        test = _write(work / "test.csv", edit_test(_rows(good)))
        return ["--train", str(good), "--test", str(test)]
    return build


def _ragged(rows):
    rows[7] = rows[7][:-2] + rows[7][-1:]
    return rows


def _unknown_label(rows):
    rows[7][-1] = "martian"
    return rows


def _label_twice(rows):
    """The label column repeated as the last column, header included."""
    return [row + row[-1:] for row in rows]


def _single_class(rows):
    return [rows[0]] + [row for row in rows[1:] if row[-1] == "0"]


def _cells(rows_to_edit, text):
    """An edit that puts ``text`` in the first cell of each data row in
    ``rows_to_edit``."""
    def edit(rows):
        for row in rows_to_edit:
            rows[row][0] = text
        return rows
    return edit


def _missing_directory(flag):
    """--input of the good CSV, with ``flag`` naming a file in a missing
    directory; ``_run`` puts these arguments last, so they override its
    --report."""
    def build(good, work):
        return ["--input", str(good), flag, str(work / "nodir" / "out")]
    return build


def _directory(flag):
    """--input of the good CSV, with ``flag`` naming an existing directory
    (a second --input overrides the first)."""
    def build(good, work):
        (work / "adir").mkdir()
        return ["--input", str(good), flag, str(work / "adir")]
    return build


def _empty(flag):
    """--input of the good CSV, with ``flag`` naming the empty path: the
    working directory, which the test makes the work directory."""
    def build(good, work):
        return ["--input", str(good), flag, ""]
    return build


def _long_report_name(good, work):
    """--input of the good CSV, with --report naming a file whose name is too
    long for the file system."""
    return ["--input", str(good), "--report", str(work / f"{LONG_NAME}.json")]


def _report_over_input(good, work):
    """--input of the good rows copied into the work directory, with --report
    naming that copy."""
    path = str(_write(work / "data.csv", _rows(good)))
    return ["--input", path, "--report", path]


def _rules_over_report(good, work):
    """--input of the good CSV, with --report and --dump-rules naming one file."""
    path = str(work / "out.json")
    return ["--input", str(good), "--report", path, "--dump-rules", path]


def _split_ratio(value):
    """--input of the good CSV, with ``value`` as its training fraction."""
    def build(good, work):
        return ["--input", str(good), "--split-ratio", value]
    return build


def _diffuse(good, work):
    """--input of a file of continuous unique values: every central point has
    frequency 1, so no rule passes and the arm stage selects no feature."""
    rows = "".join(f"{i}.125,{i}.25,{i % 2}\n" for i in range(40))
    path = work / "diffuse.csv"
    path.write_text("x,y,label\n" + rows, encoding="utf-8")
    return ["--input", str(path), "--split-ratio", "0.5"]


def _renamed_columns(rows):
    rows[0] = [name if name == "label" else f"x{name}" for name in rows[0]]
    return rows


def _unknown_label_column(good, work):
    return ["--input", str(good), "--label-column", "nope"]


def _missing_input(good, work):
    """--input of a file that does not exist."""
    return ["--input", str(work / "absent.csv")]


def _three_train_rows(good, work):
    """Two normal rows and one attack as train, under every engine: both
    classes, but fewer rows than EM's two components need."""
    header, *rows = _rows(good)
    train = [header] + [r for r in rows if r[-1] == "0"][:2] + [r for r in rows if r[-1] == "1"][:1]
    path = _write(work / "train.csv", train)
    return ["--train", str(path), "--test", str(good), "--engines", "em,nb,lr"]


# (case, source arguments built from the good CSV, exit code, the error the
# run raises: the innermost cause of a StageError)
FAULTS = [
    ("ragged_row", _input(_ragged), 3, MalformedCsvError),
    ("header_only", _input(lambda rows: rows[:1]), 3, EmptyDatasetError),
    ("label_column_only", _input(lambda rows: [row[-1:] for row in rows]), 3, EmptyDatasetError),
    ("unknown_label", _input(_unknown_label), 3, UnmappableLabelError),
    ("unknown_label_column", _unknown_label_column, 3, UnknownLabelColumnError),
    ("label_column_twice", _input(_label_twice), 3, SchemaMismatchError),
    # a header fault is reported before a bad data row
    ("label_column_twice_and_unknown_label", _input(lambda rows: _label_twice(_unknown_label(rows))),
     3, SchemaMismatchError),
    ("one_data_row", _input(lambda rows: rows[:2]), 3, TooFewRecordsError),
    ("three_train_rows", _three_train_rows, 3, TooFewRecordsError),
    ("input_missing", _missing_input, 3, UnreadableCsvError),
    ("input_is_a_directory", _directory("--input"), 3, UnreadableCsvError),
    ("single_class", _input(_single_class), 3, SingleClassTrainingError),
    ("renamed_test_columns", _files(_renamed_columns), 3, SchemaMismatchError),
    ("latin1_byte", _input(_cells([7], "café"), encoding="latin-1"), 3, UnreadableCsvError),
    ("oversized_field", _input(_cells([7], OVERSIZED_FIELD)), 3, UnreadableCsvError),
    ("crlf", _input(lambda rows: rows, newline="\r\n"), 0, None),
    ("blank_line", _input(lambda rows: rows[:300] + [[]] + rows[300:]), 0, None),
    ("report_in_missing_directory", _missing_directory("--report"), 2, ConfigError),
    ("rules_in_missing_directory", _missing_directory("--dump-rules"), 2, ConfigError),
    ("report_is_a_directory", _directory("--report"), 2, ConfigError),
    ("report_is_empty", _empty("--report"), 2, ConfigError),
    ("rules_is_empty", _empty("--dump-rules"), 2, ConfigError),
    ("report_name_too_long", _long_report_name, 2, ConfigError),
    ("model_is_a_directory", _directory("--dump-model"), 2, ConfigError),
    ("report_over_input", _report_over_input, 2, ConfigError),
    ("rules_over_report", _rules_over_report, 2, ConfigError),
    ("split_ratio_of_one", _split_ratio("1.0"), 2, ConfigError),
    ("no_rule_passes", _diffuse, 3, NoFeaturesSelectedError),
]


@pytest.mark.parametrize("build, want, error", [c[1:] for c in FAULTS],
                         ids=[c[0] for c in FAULTS])
def test_fault_injection_exit_code_and_no_stray_files(
    synth_csv, tmp_path, monkeypatch, capsys, build, want, error
):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)  # where an empty output path points
    report = work / "report.json"
    args = build(synth_csv, work)
    before = _contents(work)
    raised, exit_code_for = [], cli._exit_code_for
    monkeypatch.setattr(cli, "_exit_code_for", lambda exc: raised.append(exc) or exit_code_for(exc))
    assert _run(args, report) == want
    assert (type(raised[-1]) if raised else None) is error  # a StageError's cause comes last
    assert not list(work.glob("*.tmp"))  # pathlib's * also matches dotfiles
    if want == 2:  # a bad value or output path, named and refused before loading
        assert args[-1] in capsys.readouterr().err
    if want != 0:
        assert _contents(work) == before
        assert not report.exists()
        return
    assert _run(["--input", str(synth_csv)], tmp_path / "reference.json") == 0
    assert _report_body(report) == _report_body(tmp_path / "reference.json")


def _contents(directory):
    """Each path under ``directory`` with its bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in directory.rglob("*")}


def _blank(names):
    """Empty every cell of the named columns, header kept."""
    def edit(rows):
        cols = [rows[0].index(name) for name in names]
        return [rows[0]] + [["" if j in cols else c for j, c in enumerate(row)] for row in rows[1:]]
    return edit


def _train(edit_train):
    """Source arguments for edited rows as train and the good rows as test."""
    def build(good, work):
        train = _write(work / "train.csv", edit_train(_rows(good)))
        return ["--train", str(train), "--test", str(good)]
    return build


def _unseen_tokens(rows):
    # every categorical cell of the synthetic file starts with a letter
    return [rows[0]] + [
        [c if j == len(row) - 1 or not c[:1].isalpha() else f"unseen_{c}" for j, c in enumerate(row)]
        for row in rows[1:]
    ]


def _identical_features(rows):
    return [rows[0]] + [rows[1][:-1] + row[-1:] for row in rows[1:]]


# In the synth_csv fixture f00 (numeric) and f05 (categorical) carry the
# signal and are the two selected features; f01 (numeric) and f02
# (categorical) are noise.
NOISE = ("f01", "f02")
SIGNAL = ("f00", "f05")


def _huge_test_value(text):
    """Seed-9 train and seed-10 test files (600 x 7), with ``text`` in f01 of
    one test row; the low threshold selects f01 for the engines."""
    def build(good, work):
        for name, seed in (("train.csv", "9"), ("test.csv", "10")):
            assert main(["synth", "--out", str(work / name), "--records", "600", "--noise", "5",
                         "--signal", "2", "--seed", seed]) == 0
        rows = _rows(work / "test.csv")
        rows[7][rows[0].index("f01")] = text
        _write(work / "test.csv", rows)
        return ["--train", str(work / "train.csv"), "--test", str(work / "test.csv"),
                "--num-features", "7", "--minsup-minconf", "0.2"]
    return build


def _check_no_report(report, model, engines):
    assert report is None and model is None


def _check_signal_selected(report, model, engines):
    # a column with no value has no central point, so no rule names it
    assert [f["name"] for f in report["selected_features"]] == list(SIGNAL)


def _check_f00_kind(kind):
    def check(report, model, engines):
        _check_signal_selected(report, model, engines)
        assert model["nb"]["features"]["f00"]["kind"] == kind
    return check


def _check_engines_ran(report, model, engines):
    assert list(report["engines"]) == engines


def _check_f01_fed_to_engines(report, model, engines):
    assert "f01" in [f["name"] for f in report["selected_features"]]
    _check_engines_ran(report, model, engines)


def _check_one_em_label(report, model, engines):
    # every test row is the same point, so EM gives every row one label
    cm = report["engines"]["em"]["confusion"]
    assert cm["tp"] + cm["fp"] == 0 or cm["tn"] + cm["fn"] == 0


# (case, source arguments built from the good CSV, engines, exit code, check)
DEGENERATE = [
    ("all_missing_noise_columns", _input(_blank(NOISE)), ["em", "nb", "lr"], 0,
     _check_signal_selected),
    ("all_missing_signal_column", _input(_blank(SIGNAL[:1])), ["em", "nb", "lr"], 3,
     _check_no_report),
    ("all_missing_test_columns", _files(_blank(SIGNAL)), ["em", "nb", "lr"], 0,
     _check_engines_ran),
    ("all_test_tokens_unseen", _files(_unseen_tokens), ["em", "nb", "lr"], 0,
     _check_engines_ran),
    ("identical_feature_rows_em", _input(_identical_features), ["em"], 0,
     _check_one_em_label),
    # float64 cannot hold 1e400, so that token is no number; 59 training
    # cells of 1e308 in f00 overflow its fitted mean
    ("1e400_in_train", _train(_cells([7], "1e400")), ["em", "nb", "lr"], 0,
     _check_f00_kind("categorical")),
    ("1e308_sums_in_train", _train(_cells(range(1, 60), "1e308")), ["em", "nb", "lr"], 3,
     _check_no_report),
    ("1e400_in_test", _files(_cells([7], "1e400")), ["em", "nb", "lr"], 0,
     _check_f00_kind("numeric")),
    # a finite cell too far from every mean for float64 scores -inf, without
    # a RuntimeWarning, which pytest turns into an error
    ("1e300_in_test", _huge_test_value("1e300"), ["em", "nb", "lr"], 0,
     _check_f01_fed_to_engines),
    # 1.7e308 standardizes past float64 (f01's training std is about 0.6):
    # the encoder gives that cell +inf, again without a RuntimeWarning
    ("1.7e308_in_test", _huge_test_value("1.7e308"), ["em", "nb", "lr"], 0,
     _check_f01_fed_to_engines),
]


@pytest.mark.parametrize(
    "build, engines, want, check", [c[1:] for c in DEGENERATE], ids=[c[0] for c in DEGENERATE]
)
def test_degenerate_input_exit_code_and_no_stray_files(
    synth_csv, tmp_path, build, engines, want, check
):
    work = tmp_path / "work"
    work.mkdir()
    report = work / "report.json"
    argv = ["run", *build(synth_csv, work), "--engines", ",".join(engines),
            "--report", str(report), "--dump-centres", str(work / "centres.csv"),
            "--dump-rules", str(work / "rules.csv"), "--dump-model", str(work / "model.json")]
    assert main(argv) == want
    assert not list(work.glob("*.tmp"))
    if want:  # a failed run writes no dump
        assert not [p for p in ("centres.csv", "rules.csv", "model.json") if (work / p).exists()]
    model = work / "model.json"  # json.loads refuses the inf.0 or nan.0 of an overflow
    check(*(json.loads(p.read_text()) if p.exists() else None for p in (report, model)), engines)


def test_module_entrypoint_smoke(tmp_path):
    # pytest's pythonpath setting does not reach a child process
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "cparm", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "cparm" in result.stdout


@pytest.mark.parametrize("error, code", [(OSError, errno.ENOSPC), (FileNotFoundError, errno.ENOENT)],
                         ids=["full_disk", "target_gone"])
def test_failed_write_exits_4_and_leaves_no_file(synth_csv, tmp_path, monkeypatch, capsys,
                                                 error, code):
    # a failed write is the one failure left to exit 4, and no input causes
    # one, so os.replace fails here as on a full disk or a vanished
    # directory; whatever its errno, it is not a data error
    def failed_write(src, dst):
        raise error(code, os.strerror(code))

    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(os, "replace", failed_write)
    assert _run(["--input", str(synth_csv)], work / "report.json") == 4
    assert f"error: [Errno {code}] {os.strerror(code)}" in capsys.readouterr().err
    assert not list(work.iterdir())  # neither the report nor its temp file


def test_failed_dump_write_exits_4_and_leaves_no_file(synth_csv, tmp_path, monkeypatch, capsys):
    # the dumps are written in the pipeline's "dump" stage, which names
    # itself in the message; the exit code is still the failed write's
    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(os, "replace", full_disk)
    dumps = ["--dump-centres", str(work / "centres.csv"), "--dump-rules", str(work / "rules.csv")]
    assert _run(["--input", str(synth_csv), *dumps], work / "report.json") == 4
    assert "error: stage 'dump' failed: [Errno 28]" in capsys.readouterr().err
    assert not list(work.iterdir())


def test_longest_report_name_is_written(synth_csv, tmp_path):
    # 250 characters plus ".json" is the 255 bytes a file name may hold; the
    # temp file it is written through must not be longer
    work = tmp_path / "work"
    work.mkdir()
    report = work / f"{'r' * 250}.json"
    assert _run(["--input", str(synth_csv)], report) == 0
    assert json.loads(report.read_text())["selected_features"]
    assert [p.name for p in work.iterdir()] == [report.name]
