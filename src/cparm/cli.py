"""Command-line interface: `run` the pipeline, `synth` a dataset, `inspect` a CSV.

Exit codes: 0 success, 2 configuration/validation error, 3 data error,
4 runtime error, such as a failed write.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .central_points import partition_count
from .dataset import atomic_open, load_csv, synth_dataset, write_csv
from .errors import ConfigError, CparmError, DataError, StageError
from .pipeline import (
    DEFAULT_FRACTION,
    PipelineConfig,
    SourceFiles,
    SourceSplit,
    check_output_path,
    emit_report,
    run_pipeline,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


# argparse turns only a ValueError or TypeError of a type= function into its
# own usage error; the ConfigError of a bad list reaches main and exits 2.
def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse threshold list {text!r}") from None
    return values


def _parse_engines(text: str) -> tuple[str, ...]:
    return tuple(e.strip() for e in text.split(",") if e.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cparm",
        description="central-point / association-rule feature selection pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left out is absent from the namespace, so the config takes
    # PipelineConfig's default for it
    run = sub.add_parser("run", help="run the full pipeline and write a report",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--train", help="training CSV (requires --test)")
    run.add_argument("--test", help="testing CSV (requires --train)")
    run.add_argument("--input", help="single CSV, split by --split-ratio")
    run.add_argument("--split-ratio", type=float, dest="fraction", metavar="SPLIT_RATIO",
                     help=f"training fraction for --input mode (default {DEFAULT_FRACTION})")
    run.add_argument("--label-column")
    run.add_argument("--minsup-minconf", type=_parse_thresholds, dest="thresholds",
                     metavar="V[,V...]",
                     help="threshold sweep values (each used as both minsup and minconf)")
    run.add_argument("--num-features", type=int)
    run.add_argument("--engines", type=_parse_engines)
    run.add_argument("--seed", type=int)
    run.add_argument("--report", dest="report_path", metavar="REPORT", required=True,
                     help="output path for the JSON report")
    run.add_argument("--dump-centres", metavar="PATH")
    run.add_argument("--dump-rules", metavar="PATH")
    run.add_argument("--dump-model", metavar="PATH")

    synth = sub.add_parser("synth", help="materialize a synthetic CSV plus manifest")
    synth.add_argument("--out", required=True, help="CSV path to write")
    synth.add_argument("--records", type=int, required=True)
    synth.add_argument("--noise", type=int, required=True)
    synth.add_argument("--signal", type=int, required=True)
    synth.add_argument("--seed", type=int, default=PipelineConfig.seed)

    inspect = sub.add_parser("inspect", help="print schema and partition count for a CSV")
    inspect.add_argument("path")
    inspect.add_argument("--label-column", default=PipelineConfig.label_column)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    options = vars(args)  # only the options given, each under its PipelineConfig field
    del options["command"]
    train, test, path = (options.pop(key, None) for key in ("train", "test", "input"))
    if train or test:
        if not (train and test):
            raise ConfigError("--train and --test must be given together")
        if path:
            raise ConfigError("--input conflicts with --train/--test")
        if "fraction" in options:
            raise ConfigError("--split-ratio applies only to --input")
        source = SourceFiles(train, test)
    elif path:
        source = SourceSplit(path, options.pop("fraction", DEFAULT_FRACTION))
    else:
        raise ConfigError("give either --train/--test or --input")
    config = PipelineConfig(source=source, **options)
    report = run_pipeline(config)
    emit_report(report, config.report_path)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out)
    check_output_path(out)  # before with_suffix, which refuses a path like "."
    manifest_path = out.with_suffix(".manifest.json")
    check_output_path(manifest_path)
    dataset, manifest = synth_dataset(args.records, args.noise, args.signal, args.seed)
    write_csv(dataset, out)
    try:
        with atomic_open(manifest_path) as fh:
            fh.write(manifest.to_json() + "\n")
    except BaseException:
        manifest_path.unlink(missing_ok=True)  # it describes the data.csv just replaced
        raise
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
    if isinstance(exc, DataError):
        return EXIT_DATA
    return EXIT_RUNTIME


def main(argv: list[str] | None = None) -> int:
    handlers = {"run": _cmd_run, "synth": _cmd_synth, "inspect": _cmd_inspect}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (CparmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
