"""Every function the benchmark's traced run wraps must still exist.

perfbench/layers.py names its targets as (module, attribute) strings, so a
rename in src/cparm would otherwise surface only when a traced benchmark
run fails. This resolves each target without installing any wrapper.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    return importlib.import_module("layers")


def test_every_traced_target_resolves(monkeypatch):
    layers = _layers(monkeypatch)
    assert layers.TRACED
    for module_name, attribute, _span, _hook in layers.TRACED:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attribute}"


def test_properties_read_by_the_hooks_exist():
    from cparm.arm import Transaction, build_transactions
    from cparm.central_points import central_points
    from cparm.dataset import synth_dataset

    ds, _ = synth_dataset(4, 1, 1, seed=0)
    assert (ds.n_records, ds.n_attributes) == (4, 2)
    assert Transaction(frozenset(), 0).items == frozenset()

    # the central-point and mining hooks read table.p, len(table.entries) and
    # len(t.items) for each transaction generate_rules is given
    ds, _ = synth_dataset(300, 4, 2, seed=0)
    table = central_points(ds, 30)
    assert table.p == 30
    transactions = build_transactions(table)
    present = int((transactions.codes >= 0).sum())
    assert present > 0
    assert len(table.entries) == present
    assert sum(len(t.items) for t in transactions) == present


# Runs in a fresh interpreter, so the wrappers layers.install puts on cparm's
# functions never reach the modules this test session shares.
TRACED_RUN = """
import json, sys
import layers
from tracing import Tracer
import cparm, cparm.cli

tracer = Tracer()
layers.install(tracer)
cparm.run_pipeline(cparm.PipelineConfig(
    source=cparm.SourceSynthetic(400, 6, 2), thresholds=(0.3, 0.5), num_features=3))
main = cparm.cli.main
for name, seed in (("train.csv", "1"), ("test.csv", "2")):
    assert main(["synth", "--out", name, "--records", "300", "--noise", "5",
                 "--signal", "2", "--seed", seed]) == 0
assert main(["run", "--train", "train.csv", "--test", "test.csv",
             "--minsup-minconf", "0.3", "--num-features", "3", "--report", "report.json",
             "--dump-centres", "centres.csv", "--dump-rules", "rules.csv",
             "--dump-model", "model.json"]) == 0
print(json.dumps(layers.metrics(tracer)))
"""


def test_traced_run_yields_every_layer_metric(tmp_path):
    env = {
        **os.environ,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join([str(PERFBENCH), str(ROOT / "src")]),
    }
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(got) == {m["name"] for m in declared} - {"trace.overhead_s"}
    for name in ("dataset.cells", "central_points.entries", "arm.pair_increments"):
        assert got[name] > 0, name
