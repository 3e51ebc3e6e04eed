"""End-to-end orchestration: load, central points, rule mining, engines, report.

Stages run in a fixed order and are individually wall-clocked. Everything
downstream of loading sees training data only, until the fitted engines
predict on the held-out test set. Reports are fully deterministic for a
fixed config; only the timing fields vary between runs.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import __version__
from .arm import SweepResult, build_transactions, run_threshold_sweep
from .central_points import CentralPointsTable, central_points, make_plan, partition_count
from .dataset import (
    Dataset,
    SplitSpec,
    conform,
    format_cell,
    group_by_label,
    load_csv,
    project,
    split,
    synth_dataset,
)
from .engines import (
    EMConfig,
    em_fit,
    em_predict,
    encode,
    lr_fit,
    lr_predict,
    map_clusters,
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
DEFAULT_THRESHOLDS = (0.4, 0.6, 0.8)


@dataclass(frozen=True)
class SourceFiles:
    train_path: str
    test_path: str


@dataclass(frozen=True)
class SourceSplit:
    path: str
    fraction: float


@dataclass(frozen=True)
class SourceSynthetic:
    n_records: int
    n_noise: int
    n_signal: int
    fraction: float = 0.8


@dataclass(frozen=True)
class PipelineConfig:
    source: SourceFiles | SourceSplit | SourceSynthetic
    label_column: str = "label"
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
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
            raise ConfigError(f"unknown engines: {unknown}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if isinstance(self.source, (SourceSplit, SourceSynthetic)):
            if not (0.0 < self.source.fraction < 1.0):
                raise ConfigError(f"split fraction {self.source.fraction} outside (0, 1)")

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
            "fraction": self.source.fraction,
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
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    finally:
        timings[name] = (time.perf_counter() - start) * 1000.0


def _acquire(config: PipelineConfig) -> tuple[Dataset, Dataset]:
    src = config.source
    if isinstance(src, SourceFiles):
        train = load_csv(src.train_path, config.label_column)
        test = conform(load_csv(src.test_path, config.label_column), train.schema)
        return train, test
    if isinstance(src, SourceSplit):
        full = load_csv(src.path, config.label_column)
        return split(full, SplitSpec("ratio", fraction=src.fraction, seed=config.seed))
    full, _manifest = synth_dataset(src.n_records, src.n_noise, src.n_signal, config.seed)
    return split(full, SplitSpec("ratio", fraction=src.fraction, seed=config.seed))


def _partition_labels(labels: Sequence[int], boundaries) -> list[int]:
    # majority label per row range, exact ties counted as attack
    out = []
    for start, end in boundaries:
        ones = sum(labels[start:end])
        out.append(1 if 2 * ones >= end - start else 0)
    return out


def _sweep_echo(sweep: SweepResult) -> tuple:
    entries = []
    for entry in sweep.entries:
        entries.append(
            {
                "threshold": entry.threshold,
                "classes": {
                    str(cls): [
                        {"attribute": e.attribute, "importance": e.best_importance}
                        for e in entry.by_class[cls].entries
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
        if len(set(train.labels)) < 2:
            raise SingleClassTrainingError()

    with _stage("central_points", timings):
        p = partition_count(train.n_records, train.n_attributes)
        # group rows by class so segments are class-homogeneous and the
        # per-class rule extraction downstream sees attributable transactions
        train_grouped = group_by_label(train)
        plan = make_plan(train_grouped.n_records, p)
        table = central_points(train_grouped, p)
        part_labels = _partition_labels(train_grouped.labels, plan.boundaries)

    with _stage("arm", timings):
        transactions = build_transactions(table, part_labels)
        sweep = run_threshold_sweep(transactions, config.num_features, config.thresholds)
        selected = sweep.merged
        if not selected:
            raise NoFeaturesSelectedError(
                "no rules passed the thresholds; nothing to feed the decision engines"
            )
        selected_names = [name for name, _ in selected]

    if config.dump_centres:
        _dump_centres(table, config.dump_centres)
    if config.dump_rules:
        _dump_rules(sweep.rules, config.dump_rules)

    engine_results: dict = {}
    model_dumps: dict = {}
    requested = [e for e in ENGINE_ORDER if e in config.engines]
    for engine in requested:
        preds, model_dict = _run_engine(engine, train, test, selected_names, config, timings)
        cm = confusion(preds, list(test.labels))
        engine_results[engine] = {
            "confusion": {"tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn},
            "metrics": compute_metrics(cm).to_dict(),
        }
        model_dumps[engine] = model_dict

    if config.dump_model:
        _write_json(model_dumps, config.dump_model)

    return EvaluationReport(
        config=config.to_dict(),
        partitions=p,
        selected_features=tuple(selected),
        threshold_sweep=_sweep_echo(sweep),
        engines=engine_results,
        timings_ms=timings,
    )


def _run_engine(
    engine: str,
    train: Dataset,
    test: Dataset,
    features: list[str],
    config: PipelineConfig,
    timings: dict,
) -> tuple[list[int], dict]:
    if engine == "nb":
        with _stage("fit_nb", timings):
            model = nb_fit(train, features)
        with _stage("predict_nb", timings):
            rows = project(test, features).records
            preds = [nb_predict(model, row)[0] for row in rows]
        return preds, model.to_dict()

    with _stage(f"fit_{engine}", timings):
        matrix, encoder = encode(train, features)
        if engine == "lr":
            model = lr_fit(matrix)
        else:
            model = em_fit(matrix.unlabeled(), EMConfig(seed=config.seed))
            model = model.with_mapping(map_clusters(model, matrix))
    with _stage(f"predict_{engine}", timings):
        test_matrix = encoder.transform(test)
        if engine == "lr":
            preds = [lr_predict(model, row)[0] for row in test_matrix.rows]
        else:
            labels, _ = em_predict(model, test_matrix.rows)
            preds = [int(v) for v in labels]
    return preds, model.to_dict()


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


@contextmanager
def _atomic_open(path: str | Path):
    """A text file that replaces ``path`` only once the block completes.

    It is written as a temp file in the target's directory and moved over
    ``path`` with os.replace, so a failure leaves neither a partial file nor
    the temp file behind, and an older file at ``path`` stays as it was.
    """
    target = Path(path)
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    try:
        with tmp.open("w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(obj, path: str | Path) -> None:
    with _atomic_open(path) as fh:
        fh.write(dumps_json(obj) + "\n")


def _dump_centres(table: CentralPointsTable, path: str | Path) -> None:
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["attribute", "partition", "value", "frequency"])
        for cp in table.entries:
            writer.writerow([cp.attribute, cp.partition_index, format_cell(cp.value), cp.frequency])


def _dump_rules(rules, path: str | Path) -> None:
    with _atomic_open(path) as fh:
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
        m = result["metrics"]
        rows.append(
            [
                engine,
                pct(m["accuracy"]), pct(m["far"]), pct(m["fpr"]),
                pct(m["fnr"]), pct(m["precision"]), pct(m["recall"]),
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def emit_report(report: EvaluationReport, path: str | Path) -> None:
    """Write the JSON report and echo the metrics table to standard output."""
    _write_json(report.to_dict(), path)
    print(render_metrics_table(report))
