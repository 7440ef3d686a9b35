"""The public surface: what the benchmark sweep reads and the package exports.

The __init__ import list is the one declaration of the package surface.  A
deletion in src that breaks the library-sweep workload, or an __init__ that
re-exports a private name or a name through a module that only imports it,
fails here, not in a benchmark run.
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
    tree = ast.parse((ROOT / "src" / "conjsum" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        for alias in node.names:
            assert not alias.name.startswith("_"), f"{node.module}.{alias.name}"
            value = getattr(conjsum, alias.name)
            if callable(value):  # a class or function, lru-cached ones included
                assert value.__module__ == f"conjsum.{node.module}", f"{node.module}.{alias.name}"
    assert not [m.__name__ for m in package_modules() if hasattr(m, "__all__")]
