"""Golden outputs: three small fixed configs whose report (minus timings_ms),
rules dump and centres dump must stay byte-identical across refactors.

Together the configs cover the synthetic, split and files sources, every
engine, one- and three-value threshold sweeps, and --dump-rules. Regenerate
the files only for a change that alters output on purpose, and say why in
CHANGES.md:

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


def _synthetic() -> None:
    config = PipelineConfig(
        source=SourceSynthetic(1500, 6, 3),
        num_features=4,
        seed=3,
        dump_rules="rules.csv",
        dump_centres="centres.csv",
        report_path="report.json",
    )
    emit_report(run_pipeline(config), "report.json")


def _split() -> None:
    assert main(["synth", "--out", "data.csv", "--records", "1200", "--noise", "5",
                 "--signal", "2", "--seed", "4"]) == 0
    assert main(["run", "--input", "data.csv", "--split-ratio", "0.7",
                 "--minsup-minconf", "0.2,0.35,0.45", "--num-features", "3", "--seed", "4",
                 "--report", "report.json", *DUMPS]) == 0


def _files() -> None:
    for name, seed in (("train.csv", "5"), ("test.csv", "6")):
        assert main(["synth", "--out", name, "--records", "900", "--noise", "7",
                     "--signal", "3", "--seed", seed]) == 0
    assert main(["run", "--train", "train.csv", "--test", "test.csv",
                 "--minsup-minconf", "0.3", "--num-features", "5", "--engines", "nb,lr",
                 "--seed", "6", "--report", "report.json", *DUMPS]) == 0


CASES = {"synthetic": _synthetic, "split": _split, "files": _files}


def produce(case: str, workdir: Path) -> dict[str, bytes]:
    """Run ``case`` inside ``workdir``; golden file name -> expected bytes."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            CASES[case]()
    finally:
        os.chdir(previous)
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    del report["timings_ms"]
    return {
        f"{case}.report.json": (dumps_json(report) + "\n").encode(),
        f"{case}.rules.csv": (workdir / "rules.csv").read_bytes(),
        f"{case}.centres.csv": (workdir / "centres.csv").read_bytes(),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    for name, got in produce(case, tmp_path).items():
        assert got == (GOLDEN_DIR / name).read_bytes(), name


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in produce(case, Path(tmp)).items():
                (GOLDEN_DIR / name).write_bytes(data)
                print(f"wrote {GOLDEN_DIR / name}")
