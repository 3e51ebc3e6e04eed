"""End-to-end orchestration: load, central points, rule mining, engines, report.

Stages run in a fixed order and are individually wall-clocked. Everything
downstream of loading sees training data only, until the fitted engines
predict on the held-out test set. Reports are fully deterministic for a
fixed config; only the timing fields vary between runs.
"""

from __future__ import annotations

import csv
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path

from . import __version__
from .arm import SweepResult, build_transactions, run_threshold_sweep
from .central_points import CentralPointsTable, central_points, partition_count
from .dataset import (
    Dataset,
    atomic_open,
    check_seed_and_fraction,
    column_text,
    format_cell,
    load_csv,
    project,
    split,
    synth_dataset,
)
from .engines import (
    em_fit,
    em_predict,
    encode,
    lr_fit,
    lr_predict,
    nb_fit,
    nb_predict,
)
from .errors import (
    ConfigError,
    NoFeaturesSelectedError,
    SingleClassTrainingError,
    StageError,
)
from .metrics import compute_metrics, confusion

ENGINE_ORDER = ("em", "nb", "lr")
DEFAULT_FRACTION = 0.8  # of the rows that train, when one table is split


@dataclass(frozen=True)
class SourceFiles:
    train_path: str
    test_path: str


@dataclass(frozen=True)
class SourceSplit:
    path: str
    fraction: float = DEFAULT_FRACTION


@dataclass(frozen=True)
class SourceSynthetic:
    n_records: int
    n_noise: int
    n_signal: int


def check_output_path(path: str | Path) -> None:
    """Raise ConfigError unless ``path`` can name a file to write: its
    directory exists and it is not a directory itself."""
    try:
        if not Path(path).parent.is_dir():
            raise ConfigError(f"cannot write {path}: its directory does not exist")
        if Path(path).is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
    except OSError as exc:  # such as a name too long for the file system
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


@dataclass(frozen=True)
class PipelineConfig:
    source: SourceFiles | SourceSplit | SourceSynthetic
    label_column: str = "label"
    thresholds: tuple[float, ...] = (0.4, 0.6, 0.8)
    num_features: int = 11
    engines: tuple[str, ...] = ENGINE_ORDER
    seed: int = 0
    dump_centres: str | None = None
    dump_rules: str | None = None
    dump_model: str | None = None
    report_path: str | None = None

    def validate(self) -> None:
        if not self.thresholds:
            raise ConfigError("at least one minsup/minconf value is required")
        if list(self.thresholds) != sorted(self.thresholds):
            raise ConfigError("threshold values must be sorted ascending")
        if len(set(self.thresholds)) != len(self.thresholds):
            raise ConfigError("threshold values must be distinct")
        for t in self.thresholds:
            if not (0.0 < t <= 1.0):
                raise ConfigError(f"threshold {t} outside (0, 1]")
        if self.num_features < 1:
            raise ConfigError("number of selected features must be >= 1")
        if not self.engines:
            raise ConfigError("at least one decision engine is required")
        unknown = [e for e in self.engines if e not in ENGINE_ORDER]
        if unknown:
            raise ConfigError(f"unknown engines {unknown}; choose from {ENGINE_ORDER}")
        check_seed_and_fraction(self.seed, getattr(self.source, "fraction", None))
        inputs = (getattr(self.source, a, None) for a in ("train_path", "test_path", "path"))
        taken = {Path(p).resolve(): "an input file" for p in inputs if p}
        outputs = {"the report": self.report_path, "the centres dump": self.dump_centres,
                   "the rules dump": self.dump_rules, "the model dump": self.dump_model}
        for what, path in outputs.items():
            if path:
                check_output_path(path)
                other = taken.setdefault(Path(path).resolve(), what)
                if other != what:
                    raise ConfigError(f"cannot write {path}: it is also {other}")

    def source_echo(self) -> dict:
        if isinstance(self.source, SourceFiles):
            return {"mode": "files", "train": self.source.train_path, "test": self.source.test_path}
        if isinstance(self.source, SourceSplit):
            return {"mode": "split", "path": self.source.path, "fraction": self.source.fraction}
        return {
            "mode": "synthetic",
            "n_records": self.source.n_records,
            "n_noise": self.source.n_noise,
            "n_signal": self.source.n_signal,
            "fraction": DEFAULT_FRACTION,
        }

    def to_dict(self) -> dict:
        return {
            "source": self.source_echo(),
            "label_column": self.label_column,
            "thresholds": list(self.thresholds),
            "num_features": self.num_features,
            "engines": [e for e in ENGINE_ORDER if e in self.engines],
            "seed": self.seed,
            "dump_centres": self.dump_centres,
            "dump_rules": self.dump_rules,
            "dump_model": self.dump_model,
            "report": self.report_path,
        }


@dataclass(frozen=True)
class EvaluationReport:
    config: dict
    partitions: int
    selected_features: tuple[tuple[str, float], ...]
    threshold_sweep: tuple
    engines: dict
    timings_ms: dict = field(compare=False)
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "partitions": self.partitions,
            "selected_features": [
                {"name": name, "importance": imp} for name, imp in self.selected_features
            ],
            "threshold_sweep": list(self.threshold_sweep),
            "engines": self.engines,
            "timings_ms": dict(self.timings_ms),
            "version": self.version,
        }


@contextmanager
def _stage(name: str, timings: dict):
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc
    finally:
        timings[name] = (time.perf_counter() - start) * 1000.0


def _acquire(config: PipelineConfig) -> tuple[Dataset, Dataset]:
    src = config.source
    if isinstance(src, SourceFiles):
        train = load_csv(src.train_path, config.label_column)
        return train, load_csv(src.test_path, config.label_column, train.schema)
    if isinstance(src, SourceSplit):
        full = load_csv(src.path, config.label_column)
        return split(full, src.fraction, config.seed)
    full, _manifest = synth_dataset(src.n_records, src.n_noise, src.n_signal, config.seed)
    return split(full, DEFAULT_FRACTION, config.seed)


def _sweep_echo(sweep: SweepResult) -> tuple:
    entries = []
    for entry in sweep.entries:
        entries.append(
            {
                "threshold": entry.threshold,
                "classes": {
                    str(cls): [
                        {"attribute": name, "importance": imp}
                        for name, imp in entry.by_class[cls]
                    ]
                    for cls in (0, 1)
                },
            }
        )
    return tuple(entries)


def run_pipeline(config: PipelineConfig) -> EvaluationReport:
    """Execute every stage and assemble the evaluation report."""
    config.validate()
    timings: dict = {}

    with _stage("load", timings):
        train, test = _acquire(config)
        if train.labels.min() == train.labels.max():
            raise SingleClassTrainingError()

    with _stage("central_points", timings):
        table = central_points(train, partition_count(train.n_records, train.n_attributes))

    with _stage("arm", timings):
        transactions = build_transactions(table)
        sweep = run_threshold_sweep(transactions, config.num_features, config.thresholds)
        del transactions  # nothing reads them after the sweep
        selected = sweep.merged
        if not selected:
            raise NoFeaturesSelectedError(
                "no rules passed the thresholds; nothing to feed the decision engines"
            )
        # the engines see the selected columns only, in ranking order
        names = [name for name, _ in selected]
        train, test = project(train, names), project(test, names)

    requested = [e for e in ENGINE_ORDER if e in config.engines]
    if "em" in requested or "lr" in requested:
        with _stage("encode", timings):
            matrix, encoder = encode(train)
            test_x = encoder.transform(test).rows

    engine_results: dict = {}
    model_dumps: dict = {}
    for engine in requested:
        with _stage(f"fit_{engine}", timings):
            if engine == "nb":
                model = nb_fit(train)
                predict, test_input = nb_predict, test
            elif engine == "lr":
                model = lr_fit(matrix)
                predict, test_input = lr_predict, test_x
            else:
                model = em_fit(matrix, config.seed)
                predict, test_input = em_predict, test_x
        with _stage(f"predict_{engine}", timings):
            labels, _ = predict(model, test_input)
        cm = confusion(labels, test.labels)
        engine_results[engine] = {
            "confusion": asdict(cm),
            "metrics": asdict(compute_metrics(cm)),
        }
        model_dumps[engine] = model.to_dict()

    # written only once every engine has run, so a failed run leaves none
    if config.dump_centres:
        _dump_centres(table, config.dump_centres)
    if config.dump_rules:
        _dump_rules(sweep.rules, config.dump_rules)
    if config.dump_model:
        _write_json(model_dumps, config.dump_model)

    return EvaluationReport(
        config=config.to_dict(),
        partitions=table.p,
        selected_features=tuple(selected),
        threshold_sweep=_sweep_echo(sweep),
        engines=engine_results,
        timings_ms=timings,
    )


# --- serialization -------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits, always spelled as a float, for exact round-trips."""
    text = format(x, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def dumps_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(obj, path: str | Path) -> None:
    with atomic_open(path) as fh:
        fh.write(dumps_json(obj) + "\n")


def _dump_centres(table: CentralPointsTable, path: str | Path) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["attribute", "partition", "value", "frequency"])
        for a in table.attributes:
            writer.writerows(zip(repeat(a.name), a.partitions.tolist(),
                                 column_text(a.modes, a.vocabulary), a.counts.tolist()))


def _dump_rules(rules, path: str | Path) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "antecedent_attr", "antecedent_value", "consequent_attr",
                "consequent_value", "support", "confidence", "importance", "label",
            ]
        )
        for r in rules:
            writer.writerow(
                [
                    r.antecedent.attribute, format_cell(r.antecedent.value),
                    r.consequent.attribute, format_cell(r.consequent.value),
                    repr(r.support), repr(r.confidence), repr(r.importance), r.label,
                ]
            )


def render_metrics_table(report: EvaluationReport) -> str:
    """Fixed-width text table of per-engine metrics as percentages (1 decimal)."""

    def pct(v: float | None) -> str:
        return "--" if v is None else f"{v * 100:.1f}"

    headers = ["engine", "accuracy", "far", "fpr", "fnr", "precision", "recall"]
    rows = [headers]
    for engine, result in report.engines.items():
        rows.append([engine, *(pct(result["metrics"][name]) for name in headers[1:])])
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def emit_report(report: EvaluationReport, path: str | Path) -> None:
    """Write the JSON report and echo the metrics table to standard output."""
    _write_json(report.to_dict(), path)
    print(render_metrics_table(report))
