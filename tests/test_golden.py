"""Golden outputs: three small fixed configs whose report (minus timings_ms),
rules dump, centres dump and model dump must stay byte-identical across
refactors.

Together the configs cover the synthetic, split and files sources, every
engine, one- and three-value threshold sweeps, and --dump-rules. The model
dump comes from a second run of each config with --dump-model added, so the
report golden keeps its ``dump_model: null`` echo; it locks the Naive Bayes
Gaussian parameters and token tables and, through the LR and EM weights,
the encoder's means, standard deviations and impute values. The Naive Bayes
fields are left-to-right sums of exact products, the same under every Python
version; the EM and LR floats go through numpy's exp and log and through
BLAS, so their last digits may differ on another CPU or float library (see
README). Regenerate the files only for a change that alters output on
purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from cparm.cli import main
from cparm.pipeline import PipelineConfig, SourceSynthetic, dumps_json, emit_report, run_pipeline

GOLDEN_DIR = Path(__file__).parent / "golden"
DUMPS = ("--dump-rules", "rules.csv", "--dump-centres", "centres.csv")
MODEL = "model.json"


def _synthetic(model: str | None) -> None:
    config = PipelineConfig(
        source=SourceSynthetic(1500, 6, 3),
        num_features=4,
        seed=3,
        dump_rules="rules.csv",
        dump_centres="centres.csv",
        dump_model=model,
        report_path="report.json",
    )
    emit_report(run_pipeline(config), "report.json")


def _model_args(model: str | None) -> list[str]:
    return ["--dump-model", model] if model else []


def _split(model: str | None) -> None:
    assert main(["synth", "--out", "data.csv", "--records", "1200", "--noise", "5",
                 "--signal", "2", "--seed", "4"]) == 0
    assert main(["run", "--input", "data.csv", "--split-ratio", "0.7",
                 "--minsup-minconf", "0.2,0.35,0.45", "--num-features", "3", "--seed", "4",
                 "--report", "report.json", *DUMPS, *_model_args(model)]) == 0


def _files(model: str | None) -> None:
    for name, seed in (("train.csv", "5"), ("test.csv", "6")):
        assert main(["synth", "--out", name, "--records", "900", "--noise", "7",
                     "--signal", "3", "--seed", seed]) == 0
    assert main(["run", "--train", "train.csv", "--test", "test.csv",
                 "--minsup-minconf", "0.3", "--num-features", "5", "--engines", "nb,lr",
                 "--seed", "6", "--report", "report.json", *DUMPS, *_model_args(model)]) == 0


CASES = {"synthetic": _synthetic, "split": _split, "files": _files}


def _run_in(workdir: Path, case: str, model: str | None) -> None:
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            CASES[case](model)
    finally:
        os.chdir(previous)


def produce(case: str, workdir: Path) -> dict[str, bytes]:
    """Run ``case`` inside ``workdir``; golden file name -> expected bytes."""
    _run_in(workdir, case, None)
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    del report["timings_ms"]
    return {
        f"{case}.report.json": (dumps_json(report) + "\n").encode(),
        f"{case}.rules.csv": (workdir / "rules.csv").read_bytes(),
        f"{case}.centres.csv": (workdir / "centres.csv").read_bytes(),
    }


def produce_model(case: str, workdir: Path) -> dict[str, bytes]:
    """Run ``case`` with --dump-model inside ``workdir``; name -> expected bytes."""
    _run_in(workdir, case, MODEL)
    return {f"{case}.model.json": (workdir / MODEL).read_bytes()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    for name, got in produce(case, tmp_path).items():
        assert got == (GOLDEN_DIR / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_dumps_match_golden(case, tmp_path):
    for name, got in produce_model(case, tmp_path).items():
        assert got == (GOLDEN_DIR / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        for make in (produce, produce_model):
            with tempfile.TemporaryDirectory() as tmp:
                for name, data in make(case, Path(tmp)).items():
                    (GOLDEN_DIR / name).write_bytes(data)
                    print(f"wrote {GOLDEN_DIR / name}")
