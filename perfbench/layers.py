"""The per-layer metrics: which cparm functions a traced run wraps, and how
their spans and return values become one number per metric.

The layers are the modules of ``src/cparm``. Everything is measured from
outside the program, at calls into each module's public functions.
"""

from __future__ import annotations

import importlib

from tracing import Tracer


def _cells(*datasets) -> int:
    return sum(d.n_records * d.n_attributes for d in datasets)


def _count_cells(t: Tracer, result, args) -> None:
    t.count("dataset.cells", _cells(result))


def _count_synth_cells(t: Tracer, result, args) -> None:
    t.count("dataset.cells", _cells(result[0]))


def _count_split_cells(t: Tracer, result, args) -> None:
    t.count("dataset.cells", _cells(*result))


def _count_conform_cells(t: Tracer, result, args) -> None:
    if result is not args[0]:  # conform hands back its input when the kinds agree
        t.count("dataset.cells", _cells(result))


def _count_central_points(t: Tracer, result, args) -> None:
    t.count("central_points.partitions", result.p)
    t.count("central_points.entries", len(result.entries))


def _count_mining(t: Tracer, result, args) -> None:
    t.count("arm.pair_increments", sum(len(x.items) * (len(x.items) - 1) for x in args[0]))
    t.count("arm.rules_out", len(result))


def _note_width(t: Tracer, result, args) -> None:
    t.counters["encoding.width"] = result[0].width  # the same on every call


def _count_em(t: Tracer, result, args) -> None:
    t.count("em.trace_len", len(result.ll_trace))


def _count_lr(t: Tracer, result, args) -> None:
    t.count("logistic.iterations", result.iterations)


def _count_report(t: Tracer, result, args) -> None:
    from cparm.pipeline import dumps_json  # cparm is importable only once child.py set sys.path

    # the size of the file the CLI's emit_report writes for this report
    t.count("pipeline.report_bytes", len(dumps_json(result.to_dict()).encode()) + 1)


# (module, attribute, span name, hook on the return value)
TRACED = (
    ("cparm.dataset", "synth_dataset", "dataset.synth_dataset", _count_synth_cells),
    ("cparm.dataset", "load_csv", "dataset.load_csv", _count_cells),
    ("cparm.dataset", "conform", "dataset.conform", _count_conform_cells),
    ("cparm.dataset", "split", "dataset.split", _count_split_cells),
    ("cparm.dataset", "group_by_label", "dataset.group_by_label", _count_cells),
    ("cparm.dataset", "project", "dataset.project", _count_cells),
    ("cparm.central_points", "central_points", "central_points.central_points",
     _count_central_points),
    ("cparm.arm", "build_transactions", "arm.build_transactions", None),
    ("cparm.arm", "generate_rules", "arm.generate_rules", _count_mining),
    ("cparm.arm", "select_features", "arm.select_features", None),
    ("cparm.arm", "run_threshold_sweep", "arm.run_threshold_sweep", None),
    ("cparm.engines.encoding", "encode", "encoding.encode", _note_width),
    ("cparm.engines.encoding", "FeatureEncoder.transform", "encoding.transform", None),
    ("cparm.engines.em", "em_fit", "em.em_fit", _count_em),
    ("cparm.engines.em", "map_clusters", "em.map_clusters", None),
    ("cparm.engines.em", "em_predict", "em.em_predict", None),
    ("cparm.engines.naive_bayes", "nb_fit", "naive_bayes.nb_fit", None),
    ("cparm.engines.naive_bayes", "nb_predict", "naive_bayes.nb_predict", None),
    ("cparm.engines.logistic", "lr_fit", "logistic.lr_fit", _count_lr),
    ("cparm.engines.logistic", "lr_predict", "logistic.lr_predict", None),
    ("cparm.metrics", "confusion", "metrics.confusion", None),
    ("cparm.metrics", "compute_metrics", "metrics.compute_metrics", None),
    ("cparm.pipeline", "run_pipeline", "pipeline.run_pipeline", _count_report),
    ("cparm.pipeline", "emit_report", "pipeline.emit_report", None),
    ("cparm.cli", "main", "cli.main", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced function; cparm.cli must already be imported."""
    for module_name, attribute, span, hook in TRACED:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        tracer.install(owner, name, span, hook)


def metrics(t: Tracer) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, which needs two runs."""
    s, c = t.self_seconds, t.counters
    pairs = c["arm.pair_increments"]
    return {
        "dataset.synth_s": s("dataset.synth_dataset"),
        "dataset.load_csv_s": s("dataset.load_csv"),
        "dataset.conform_s": s("dataset.conform"),
        "dataset.split_s": s("dataset.split"),
        "dataset.group_s": s("dataset.group_by_label"),
        "dataset.project_s": s("dataset.project"),
        "dataset.cells": c["dataset.cells"],
        "central_points.s": s("central_points.central_points"),
        "central_points.partitions": c["central_points.partitions"],
        "central_points.entries": c["central_points.entries"],
        "arm.build_s": s("arm.build_transactions"),
        "arm.mine_s": s("arm.generate_rules"),
        "arm.mining_passes": t.calls("arm.generate_rules"),
        "arm.select_s": s("arm.select_features"),
        "arm.sweep_self_s": s("arm.run_threshold_sweep"),
        "arm.pair_increments": pairs,
        "arm.rules_out": c["arm.rules_out"],
        "arm.rule_yield": c["arm.rules_out"] / pairs if pairs else 0.0,
        "encoding.fit_s": s("encoding.encode"),
        "encoding.encode_calls": t.calls("encoding.encode"),
        "encoding.transform_s": s("encoding.transform"),
        "encoding.width": c["encoding.width"],
        "em.fit_s": s("em.em_fit"),
        "em.trace_len": c["em.trace_len"],
        "em.map_s": s("em.map_clusters"),
        "em.predict_s": s("em.em_predict"),
        "naive_bayes.fit_s": s("naive_bayes.nb_fit"),
        "naive_bayes.predict_s": s("naive_bayes.nb_predict"),
        "naive_bayes.predict_calls": t.calls("naive_bayes.nb_predict"),
        "logistic.fit_s": s("logistic.lr_fit"),
        "logistic.iterations": c["logistic.iterations"],
        "logistic.predict_s": s("logistic.lr_predict"),
        "logistic.predict_calls": t.calls("logistic.lr_predict"),
        "metrics.s": s("metrics.confusion") + s("metrics.compute_metrics"),
        "pipeline.self_s": s("pipeline.run_pipeline") + s("pipeline.emit_report"),
        "pipeline.report_bytes": c["pipeline.report_bytes"],
        "cli.self_s": s("cli.main"),
    }
