"""Every function the benchmark's traced run wraps must still exist.

perfbench/layers.py names its targets as (module, attribute) strings, so a
rename in src/cparm would otherwise surface only when a traced benchmark
run fails. This resolves each target without installing any wrapper.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    from cparm.arm import Transaction
    from cparm.dataset import synth_dataset

    ds, _ = synth_dataset(4, 1, 1, seed=0)
    assert (ds.n_records, ds.n_attributes) == (4, 2)
    assert Transaction(frozenset(), 0).items == frozenset()
