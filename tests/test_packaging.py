"""The declared package metadata matches what the code imports and names."""

import ast
import importlib
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ubootstrap"


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _top_level_imports(path: Path) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_third_party_imports_are_declared():
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in _project()["dependencies"]}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        imported |= _top_level_imports(path)
    third_party = {m for m in imported
                   if m not in sys.stdlib_module_names and m not in ("__future__", "ubootstrap")}
    assert third_party <= declared, f"imported but not declared: {third_party - declared}"


def test_script_targets_resolve():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_module_imports_are_used():
    unused = {f"{path.name}: {name}" for path in PACKAGE.glob("*.py") for name in _unused_imports(path)}
    assert not unused, f"imported but unused: {sorted(unused)}"


def _rules_readers(path: Path) -> set[str]:
    """Top-level functions and classes of a module that read an attribute
    named ``rules``."""
    readers = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "rules" and isinstance(node.ctx, ast.Load):
                readers.add(getattr(top, "name", "<module>"))
    return readers


def test_engines_read_the_compiled_family():
    # one function knows the rule format; closure_rescan stays per rule as
    # the oracle
    allowed = {"_compile_family", "closure_rescan"}
    readers = {f"{name}: {reader}"
               for name in ("lattice.py", "droplets.py", "montecarlo.py", "geometry.py")
               for reader in _rules_readers(PACKAGE / name) - allowed}
    assert not readers, f"read U.rules outside the compiled family: {sorted(readers)}"
