"""The public surface: what the benchmark sweep reads, each module's __all__ and the package exports.

A deletion in src that breaks the library-sweep workload, leaves a stale
__all__ entry or re-exports a private name fails here, not in a benchmark run.
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


def test_every_all_entry_exists():
    checked = 0
    for module in package_modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
            checked += 1
    assert checked > 0


def test_package_exports_only_public_names():
    tree = ast.parse((ROOT / "src" / "conjsum" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"conjsum.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert not alias.name.startswith("_"), f"{node.module}.{alias.name}"
            assert hasattr(conjsum, alias.name), alias.name
            if public is not None:
                assert alias.name in public, f"{node.module}.{alias.name} is not in its __all__"
