"""One set-up or one pipeline run, in a fresh interpreter.

    python3 perfbench/child.py setup|run WORKLOAD SEED WORKDIR TRACE

Each run gets its own process so that its peak RSS belongs to it alone.
The result goes to WORKDIR/result.json; a failed run exits non-zero.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

import layers
from tracing import Tracer
from workloads import MISSING_SHARE, WORKLOADS, Workload

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def _import_cparm():
    import cparm
    import cparm.cli

    if Path(cparm.__file__).resolve().parent != (SRC / "cparm").resolve():
        raise SystemExit(f"imported cparm from {cparm.__file__}, not from {SRC}")
    return cparm


def _split_csv(w: Workload, seed: int, work: Path, manifest: list[str]) -> None:
    """First n_train data rows to train.csv, the rest to test.csv.

    In test.csv one numeric signal column gets "?" in MISSING_SHARE of its
    rows. The synthetic cells hold no commas or quotes, so plain splitting
    on "," is exact.
    """
    header, *rows = (work / "data.csv").read_text(encoding="utf-8").splitlines()
    names = header.split(",")

    def numeric(cell: str) -> bool:
        try:
            float(cell)
        except ValueError:
            return False
        return True

    first = rows[0].split(",")
    col = next(names.index(f) for f in manifest if numeric(first[names.index(f)]))
    train, test = rows[: w.n_train], rows[w.n_train:]
    for i in random.Random(seed).sample(range(len(test)), round(len(test) * MISSING_SHARE)):
        cells = test[i].split(",")
        cells[col] = "?"
        test[i] = ",".join(cells)
    for name, part in (("train.csv", train), ("test.csv", test)):
        (work / name).write_text("\n".join([header, *part]) + "\n", encoding="utf-8")


def setup(w: Workload, seed: int, work: Path) -> dict:
    cparm = _import_cparm()
    manifest_path = work / "data.manifest.json"
    if w.api == "cli":
        code = cparm.cli.main([
            "synth", "--out", str(work / "data.csv"), "--records", str(w.n_records),
            "--noise", str(w.n_noise), "--signal", str(w.n_signal), "--seed", str(seed),
        ])
        if code != 0:
            raise SystemExit(f"cparm synth exited with {code}")
        signal = json.loads(manifest_path.read_text())["signal_features"]
        _split_csv(w, seed, work, signal)
    else:
        # run_pipeline synthesizes its own input. Which columns carry signal
        # depends only on the column counts and the seed, so a 4-row dataset
        # yields the same manifest cheaply.
        _, manifest = cparm.synth_dataset(4, w.n_noise, w.n_signal, seed)
        manifest_path.write_text(manifest.to_json() + "\n")

    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__}


def run(w: Workload, seed: int, work: Path, trace: bool) -> dict:
    cparm = _import_cparm()
    tracer = None
    if trace:
        tracer = Tracer()
        layers.install(tracer)
    report_path = work / "report.json"
    if w.api == "library":
        config = cparm.PipelineConfig(
            source=cparm.SourceSynthetic(w.n_records, w.n_noise, w.n_signal),
            thresholds=w.thresholds,
            num_features=w.num_features,
            engines=w.engines,
            seed=seed,
        )
        start = time.perf_counter()
        report = cparm.run_pipeline(config)
        run_s = time.perf_counter() - start
        report_path.write_text(json.dumps(report.to_dict()) + "\n")
        code = 0
    else:
        argv = [
            "run", "--train", str(work / "train.csv"), "--test", str(work / "test.csv"),
            "--engines", ",".join(w.engines), "--num-features", str(w.num_features),
            "--minsup-minconf", ",".join(map(str, w.thresholds)), "--seed", str(seed),
            "--report", str(report_path),
            "--dump-centres", str(work / "centres.csv"),
            "--dump-rules", str(work / "rules.csv"),
            "--dump-model", str(work / "model.json"),
        ]
        start = time.perf_counter()
        code = cparm.cli.main(argv)
        run_s = time.perf_counter() - start
    result = {
        "exit_code": code,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = layers.metrics(tracer)
        result["spans"] = tracer.tree()
    return result


def main(argv: list[str]) -> int:
    mode, name, seed, work, trace = argv
    w, work = WORKLOADS[name], Path(work)
    if mode == "setup":
        result = setup(w, int(seed), work)
    else:
        result = run(w, int(seed), work, trace == "1")
    (work / "result.json").write_text(json.dumps(result) + "\n")
    return 0 if result.get("exit_code", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
