import json

import pytest

from cparm.arm import Item, Rule
from cparm.central_points import CentralPoint, CentralPointsTable
from cparm.dataset import split, synth_dataset, write_csv, SplitSpec
from cparm.errors import (
    ConfigError,
    NoFeaturesSelectedError,
    SingleClassTrainingError,
    StageError,
)
from cparm.pipeline import (
    EvaluationReport,
    PipelineConfig,
    SourceFiles,
    SourceSplit,
    SourceSynthetic,
    _dump_centres,
    _dump_rules,
    dumps_json,
    emit_report,
    format_float,
    render_metrics_table,
    run_pipeline,
)


def synthetic_config(**overrides):
    defaults = dict(
        source=SourceSynthetic(800, 6, 2),
        num_features=2,
        engines=("lr",),
        seed=5,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestConfigValidation:
    def test_empty_engines_rejected(self):
        with pytest.raises(ConfigError):
            synthetic_config(engines=()).validate()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            synthetic_config(engines=("svm",)).validate()

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            synthetic_config(thresholds=(0.0, 0.5)).validate()
        with pytest.raises(ConfigError):
            synthetic_config(thresholds=(0.5, 1.5)).validate()

    def test_thresholds_must_ascend(self):
        with pytest.raises(ConfigError):
            synthetic_config(thresholds=(0.8, 0.4)).validate()

    def test_num_features_positive(self):
        with pytest.raises(ConfigError):
            synthetic_config(num_features=0).validate()

    def test_seed_must_be_u64(self):
        with pytest.raises(ConfigError):
            synthetic_config(seed=-1).validate()
        with pytest.raises(ConfigError):
            synthetic_config(seed=2**64).validate()


class TestRunPipeline:
    def test_selects_planted_features(self):
        config = synthetic_config()
        report = run_pipeline(config)
        _, manifest = synth_dataset(800, 6, 2, config.seed)
        assert sorted(n for n, _ in report.selected_features) == sorted(manifest.signal_features)

    def test_lr_accuracy_on_planted_data(self):
        report = run_pipeline(
            PipelineConfig(source=SourceSynthetic(2000, 16, 4), num_features=4,
                           engines=("lr",), seed=7)
        )
        assert report.engines["lr"]["metrics"]["accuracy"] >= 0.95

    def test_all_engines_report_confusion_and_metrics(self):
        report = run_pipeline(synthetic_config(engines=("em", "nb", "lr")))
        assert list(report.engines) == ["em", "nb", "lr"]
        for result in report.engines.values():
            assert set(result["confusion"]) == {"tp", "tn", "fp", "fn"}
            assert set(result["metrics"]) == {
                "accuracy", "fpr", "fnr", "far", "precision", "recall",
            }

    def test_deterministic_modulo_timings(self):
        config = synthetic_config()
        a, b = run_pipeline(config), run_pipeline(config)
        assert a == b  # timings excluded from dataclass comparison
        da, db = a.to_dict(), b.to_dict()
        da.pop("timings_ms"), db.pop("timings_ms")
        assert dumps_json(da) == dumps_json(db)

    def test_timing_keys_cover_every_stage(self):
        report = run_pipeline(synthetic_config(engines=("nb", "em")))
        assert list(report.timings_ms) == [
            "load", "central_points", "arm", "fit_em", "predict_em",
            "fit_nb", "predict_nb",
        ]
        assert all(v >= 0 for v in report.timings_ms.values())

    def test_selection_ignores_test_set(self, tmp_path):
        # same training file, two different test files: identical selection
        full, _ = synth_dataset(1200, 6, 2, seed=21)
        train, rest = split(full, SplitSpec("ratio", fraction=0.5, seed=21))
        test_a, test_b = split(rest, SplitSpec("ratio", fraction=0.5, seed=22))
        for name, ds in [("train", train), ("ta", test_a), ("tb", test_b)]:
            write_csv(ds, tmp_path / f"{name}.csv")
        report_a = run_pipeline(
            synthetic_config(source=SourceFiles(str(tmp_path / "train.csv"), str(tmp_path / "ta.csv")))
        )
        report_b = run_pipeline(
            synthetic_config(source=SourceFiles(str(tmp_path / "train.csv"), str(tmp_path / "tb.csv")))
        )
        assert report_a.selected_features == report_b.selected_features
        assert report_a.threshold_sweep == report_b.threshold_sweep

    def test_single_class_training_aborts_in_load(self, tmp_path):
        path = tmp_path / "one_class.csv"
        path.write_text("x,y,label\n" + "".join(f"{i},{i%3},0\n" for i in range(20)),
                        encoding="utf-8")
        config = synthetic_config(source=SourceSplit(str(path), 0.5))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "load"
        assert isinstance(err.value.cause, SingleClassTrainingError)

    def test_no_passing_rules_aborts_in_arm(self, tmp_path):
        # continuous unique values: every mode has frequency 1, no rule passes
        rows = "".join(f"{i}.125,{i}.25,{i % 2}\n" for i in range(40))
        path = tmp_path / "diffuse.csv"
        path.write_text("x,y,label\n" + rows, encoding="utf-8")
        config = synthetic_config(source=SourceSplit(str(path), 0.5))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "arm"
        assert isinstance(err.value.cause, NoFeaturesSelectedError)

    def test_partition_count_excludes_label_column(self):
        report = run_pipeline(synthetic_config())
        # 800 records * 0.8 train fraction = 640 rows over 8 attributes
        assert report.partitions == 640 // 8

    def test_missing_cells_flow_through(self, tmp_path):
        # empty cells must survive loading, mode counting, NB, and encoding
        rng = __import__("random").Random(3)
        lines = ["a,b,label"]
        for i in range(200):
            label = i % 2
            a = "" if rng.random() < 0.1 else str(10 + label)
            b = "" if rng.random() < 0.1 else ("x" if label == 0 else "y")
            lines.append(f"{a},{b},{label}")
        path = tmp_path / "gaps.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = run_pipeline(
            synthetic_config(source=SourceSplit(str(path), 0.5),
                             engines=("em", "nb", "lr"))
        )
        for result in report.engines.values():
            assert result["metrics"]["accuracy"] is not None

    def test_nsl_kdd_shaped_labels(self, tmp_path):
        rng = __import__("random").Random(8)
        attacks = ["neptune", "smurf", "back", "teardrop"]
        lines = ["duration,protocol_type,src_bytes,label"]
        for i in range(120):
            if i % 2 == 0:
                lines.append(f"0,tcp,{180 + rng.randint(0, 5)},normal")
            else:
                lines.append(f"0,icmp,{1032},{rng.choice(attacks)}")
        path = tmp_path / "kdd.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = run_pipeline(
            synthetic_config(source=SourceSplit(str(path), 0.5), engines=("nb",),
                             num_features=3)
        )
        assert report.engines["nb"]["metrics"]["accuracy"] >= 0.9

    def test_dumps_written(self, tmp_path):
        config = synthetic_config(
            dump_centres=str(tmp_path / "centres.csv"),
            dump_rules=str(tmp_path / "rules.csv"),
            dump_model=str(tmp_path / "models.json"),
        )
        run_pipeline(config)
        centres = (tmp_path / "centres.csv").read_text().splitlines()
        assert centres[0] == "attribute,partition,value,frequency"
        assert len(centres) > 1
        rules = (tmp_path / "rules.csv").read_text().splitlines()
        assert rules[0] == (
            "antecedent_attr,antecedent_value,consequent_attr,consequent_value,"
            "support,confidence,importance,label"
        )
        models = json.loads((tmp_path / "models.json").read_text())
        assert "lr" in models and "weights" in models["lr"]


class TestSerialization:
    def test_float_format_round_trips(self):
        import random

        rng = random.Random(33)
        for _ in range(2000):
            x = rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-12, 12)
            assert float(format_float(x)) == x
        assert format_float(1250.0) == "1250.0"

    def test_report_json_round_trip(self, tmp_path, capsys):
        report = run_pipeline(synthetic_config())
        path = tmp_path / "report.json"
        emit_report(report, path)
        parsed = json.loads(path.read_text())
        assert parsed == report.to_dict()
        assert list(parsed) == [
            "config", "partitions", "selected_features", "threshold_sweep",
            "engines", "timings_ms", "version",
        ]

    def test_failed_writes_leave_no_file(self, tmp_path):
        report = EvaluationReport(
            config={}, partitions=1, selected_features=(), threshold_sweep=(),
            engines={"nb": object()}, timings_ms={},
        )
        rule = Rule(Item("a", 1.0), Item("b", "x"), 0.5, 0.5, 0.5, label=1)
        centre = CentralPoint("a", 0, 1.0, 3)
        # each fails while serializing, the dumps after their first row
        attempts = [
            (lambda path: emit_report(report, path), TypeError),
            (lambda path: _dump_rules([rule, None], path), AttributeError),
            (lambda path: _dump_centres(CentralPointsTable((centre, None), 1, ("a",)), path),
             AttributeError),
        ]
        for write, error in attempts:
            with pytest.raises(error):
                write(tmp_path / "out")
            assert list(tmp_path.iterdir()) == []

        # a failed write also leaves an older file at the target untouched
        old = tmp_path / "report.json"
        old.write_text("previous\n", encoding="utf-8")
        with pytest.raises(TypeError):
            emit_report(report, old)
        assert list(tmp_path.iterdir()) == [old]
        assert old.read_text(encoding="utf-8") == "previous\n"

    def test_undefined_metric_serializes_to_null(self):
        text = dumps_json({"precision": None})
        assert text == '{"precision": null}'

    def test_table_renders_percentages(self):
        report = EvaluationReport(
            config={}, partitions=1, selected_features=(), threshold_sweep=(),
            engines={
                "em": {
                    "confusion": {"tp": 1, "tn": 1, "fp": 1, "fn": 1},
                    "metrics": {
                        "accuracy": 0.772, "fpr": 0.2, "fnr": 0.062, "far": 0.131,
                        "precision": None, "recall": 0.5,
                    },
                }
            },
            timings_ms={},
        )
        table = render_metrics_table(report)
        row = table.splitlines()[1]
        assert "77.2" in row and "13.1" in row and "--" in row

    def test_stdout_mirrors_table(self, tmp_path, capsys):
        report = run_pipeline(synthetic_config())
        emit_report(report, tmp_path / "r.json")
        out = capsys.readouterr().out
        assert "engine" in out and "accuracy" in out and "lr" in out
