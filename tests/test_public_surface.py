"""The public surface: what the benchmark sweep reads and the package exports.

The __init__ export table is the one declaration of the package surface.  A
deletion in src that breaks the library-sweep workload, or an export table
that names a private name or a module that only imports the name, fails
here, not in a benchmark run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import conjsum

ROOT = Path(__file__).resolve().parents[1]


def package_modules():
    return [importlib.import_module(f"conjsum.{info.name}") for info in pkgutil.iter_modules(conjsum.__path__)]


def test_sweep_reads_only_existing_attributes():
    tree = ast.parse((ROOT / "bench" / "sweep.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "conjsum"
        for alias in node.names
    }
    assert modules == {"conjugate", "functions", "moduli", "summability", "verify"}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert ("verify", "transform_value") in used  # the walk sees the sweep's calls
    missing = [f"{m}.{a}" for m, a in sorted(used) if not hasattr(importlib.import_module(f"conjsum.{m}"), a)]
    assert missing == []


def test_package_exports_only_public_names():
    assert conjsum._EXPORTS
    for name, module in conjsum._EXPORTS.items():
        assert not name.startswith("_"), f"{module}.{name}"
        assert getattr(conjsum, name).__module__ == f"conjsum.{module}", f"{module}.{name}"
    assert set(conjsum._EXPORTS) <= set(dir(conjsum))
    assert not [m.__name__ for m in package_modules() if hasattr(m, "__all__")]
