"""Command-line interface: `run` the pipeline, `synth` a dataset, `inspect` a CSV.

Exit codes: 0 success, 2 configuration/validation error, 3 data error,
4 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .central_points import partition_count
from .dataset import load_csv, synth_dataset, write_csv
from .errors import ConfigError, CparmError, DataError, StageError
from .pipeline import (
    PipelineConfig,
    SourceFiles,
    SourceSplit,
    emit_report,
    run_pipeline,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse threshold list {text!r}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cparm",
        description="central-point / association-rule feature selection pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline and write a report")
    run.add_argument("--train", help="training CSV (requires --test)")
    run.add_argument("--test", help="testing CSV (requires --train)")
    run.add_argument("--input", help="single CSV, split by --split-ratio")
    run.add_argument("--split-ratio", type=float, default=0.8,
                     help="training fraction for --input mode (default 0.8)")
    run.add_argument("--label-column", default="label")
    run.add_argument("--minsup-minconf", default="0.4,0.6,0.8", metavar="V[,V...]",
                     help="threshold sweep values (each used as both minsup and minconf)")
    run.add_argument("--num-features", type=int, default=11)
    run.add_argument("--engines", default="em,nb,lr")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--report", required=True, help="output path for the JSON report")
    run.add_argument("--dump-centres", metavar="PATH")
    run.add_argument("--dump-rules", metavar="PATH")
    run.add_argument("--dump-model", metavar="PATH")

    synth = sub.add_parser("synth", help="materialize a synthetic CSV plus manifest")
    synth.add_argument("--out", required=True, help="CSV path to write")
    synth.add_argument("--records", type=int, required=True)
    synth.add_argument("--noise", type=int, required=True)
    synth.add_argument("--signal", type=int, required=True)
    synth.add_argument("--seed", type=int, default=0)

    inspect = sub.add_parser("inspect", help="print schema and partition count for a CSV")
    inspect.add_argument("path")
    inspect.add_argument("--label-column", default="label")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.train or args.test:
        if not (args.train and args.test):
            raise ConfigError("--train and --test must be given together")
        if args.input:
            raise ConfigError("--input conflicts with --train/--test")
        source = SourceFiles(args.train, args.test)
    elif args.input:
        source = SourceSplit(args.input, args.split_ratio)
    else:
        raise ConfigError("give either --train/--test or --input")

    thresholds = _parse_thresholds(args.minsup_minconf)
    config = PipelineConfig(
        source=source,
        label_column=args.label_column,
        thresholds=thresholds,
        num_features=args.num_features,
        engines=tuple(e.strip() for e in args.engines.split(",") if e.strip()),
        seed=args.seed,
        dump_centres=args.dump_centres,
        dump_rules=args.dump_rules,
        dump_model=args.dump_model,
        report_path=args.report,
    )
    report = run_pipeline(config)
    emit_report(report, args.report)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    dataset, manifest = synth_dataset(args.records, args.noise, args.signal, args.seed)
    out = Path(args.out)
    write_csv(dataset, out)
    manifest_path = out.with_suffix(".manifest.json")
    manifest_path.write_text(manifest.to_json() + "\n", encoding="utf-8")
    print(f"wrote {dataset.n_records} records x {dataset.n_attributes} attributes to {out}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    dataset = load_csv(args.path, args.label_column)
    print(f"dataset: {Path(args.path).stem}")
    print(f"records: {dataset.n_records}")
    print(f"attributes: {dataset.n_attributes}")
    print(f"partitions: {partition_count(dataset.n_records, dataset.n_attributes)}")
    for j, attr in enumerate(dataset.schema):
        print(f"  {j:3d}  {attr.name}  {attr.kind}")
    return EXIT_OK


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, StageError):
        return _exit_code_for(exc.cause)
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (DataError, FileNotFoundError)):
        return EXIT_DATA
    return EXIT_RUNTIME


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "synth": _cmd_synth, "inspect": _cmd_inspect}
    try:
        return handlers[args.command](args)
    except (CparmError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
