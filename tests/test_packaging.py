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
