"""One import path per name: each name is imported from the module that
defines it, and the package holds only the library's entry points."""

import ast
import types
from pathlib import Path

import cparm

SRC = Path(cparm.__file__).resolve().parent
PACKAGES = {"cparm", "cparm.engines"}


def _imports():
    """(module file, imported-from module, names) for every ``from`` import."""
    for path in sorted(SRC.rglob("*.py")):
        # a module's package; for an __init__ the last part is "__init__"
        package = ["cparm", *path.relative_to(SRC).with_suffix("").parts][:-1]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                source = ".".join([*base, *filter(None, [node.module])])
                yield path.relative_to(SRC).as_posix(), source, [a.name for a in node.names]


def test_no_module_imports_through_a_package():
    through = [(path, source, names) for path, source, names in _imports()
               if source in PACKAGES and not (source == "cparm" and names == ["__version__"])]
    assert through == []


def test_no_module_imports_a_private_name():
    private = [(path, source, name) for path, source, names in _imports() for name in names
               if name.startswith("_") and not name.endswith("__")]
    assert private == []


def test_submodules_are_not_shadowed_and_the_package_holds_the_entry_points():
    import cparm.central_points as module

    assert isinstance(module, types.ModuleType)
    assert sorted(cparm.__all__) == sorted([
        "__version__", "PipelineConfig", "SourceFiles", "SourceSplit", "SourceSynthetic",
        "emit_report", "run_pipeline", "synth_dataset",
    ])
    assert all(hasattr(cparm, name) for name in cparm.__all__)
