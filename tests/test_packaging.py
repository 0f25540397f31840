"""The declared package metadata matches what the code imports and names."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
import tomllib
from collections import Counter
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
    # and every declared dependency is imported, so none is installed unused
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in _project()["dependencies"]}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        imported |= _top_level_imports(path)
    third_party = {m for m in imported
                   if m not in sys.stdlib_module_names and m not in ("__future__", "ubootstrap")}
    assert third_party == declared, (f"imported but not declared: {third_party - declared}; "
                                     f"declared but not imported: {declared - third_party}")


def test_importing_every_module_loads_no_scipy():
    # the one geometric primitive scipy served, the dilation, runs on
    # numpy's FFT; a fresh interpreter shows what the imports pull in
    modules = sorted(f"ubootstrap.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    code = f"import sys\nfor m in {modules!r}: __import__(m)\nprint('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout == "False\n"


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
    # the constructor compiles the rules; nu and closure_rescan, the oracle,
    # are the only other readers of the rule format
    allowed = {"family.py": {"UpdateFamily", "nu"}, "lattice.py": {"closure_rescan"}}
    readers = {f"{path.name}: {reader}"
               for path in PACKAGE.glob("*.py")
               for reader in _rules_readers(path) - allowed.get(path.name, set())}
    assert not readers, f"read U.rules outside the compiled family: {sorted(readers)}"


def test_one_merge_loop():
    # the droplet algorithms share one find-and-merge loop, the only place
    # that builds a MergeEvent
    builders = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "MergeEvent"):
                    builders.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert builders == {"droplets._merge_loop"}
    tops = {top.name: top for top in ast.parse((PACKAGE / "droplets.py").read_text()).body
            if isinstance(top, ast.FunctionDef)}
    for name in ("covering_algorithm", "spanning_algorithm", "iceberg_algorithm"):
        assert not any(isinstance(n, ast.While) for n in ast.walk(tops[name])), name


def test_one_halfplane_engine():
    # strip_scan is the only engine next to a half-plane: the kernel runs
    # under closure, in a box, and under strip_scan, and a HalfPlane is only
    # the rescan oracle's argument
    callers, namers = set(), set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            names = {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            if "_grow" in names:
                callers.add(where)
            if "HalfPlane" in names:
                namers.add(where)
    assert callers == {"lattice.closure", "lattice.strip_scan"}
    assert namers == {"lattice.closure_rescan"}


def test_one_sweep_kernel():
    # sweep is the only function that builds shifted planes, and the only
    # reader of the family's circuit besides the fire memo; callers pad the
    # grid instead of choosing a torus roll or a zero-fill shift
    builders, readers, shifters = set(), set(), set()
    for path in PACKAGE.glob("*.py"):
        assert "rule_indices" not in path.read_text(), path.name
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            mentions = _mentions(top)
            if mentions["ascontiguousarray"]:
                builders.add(where)
            if mentions["circuit"]:
                readers.add(where)
            if (mentions.keys() & {"roll", "_roll", "_shift"}
                    or any(isinstance(n, (ast.arg, ast.keyword)) and n.arg == "torus"
                           for n in ast.walk(top))):
                shifters.add(where)
    assert builders == {"lattice.sweep"}
    # the constructor hands the circuit it builds to the fire memo, which
    # evaluates it on one mask per miss
    assert readers == {"lattice.sweep", "family.UpdateFamily", "family._FireMemo"}
    assert not shifters, shifters


def test_one_closure_for_every_trial():
    # the p_c trials of a chunk close together, one bit per trial, through
    # the one torus closure: no per-trial path is left, and the kernel
    # steps bool and packed grids alike, with no branch on the dtype
    assert not hasattr(importlib.import_module("ubootstrap.montecarlo"), "_perc_trial")
    tree = ast.parse((PACKAGE / "montecarlo.py").read_text())
    callers = {getattr(top, "name", "<module>") for top in tree.body
               if _mentions(top)["torus_closure_grid"]}
    assert callers == {"_perc_trials"}
    typing = {"dtype", "kind", "itemsize", "bool_", "issubdtype", "can_cast"}
    for node in ast.walk(ast.parse((PACKAGE / "lattice.py").read_text())):
        if isinstance(node, ast.Compare) or (isinstance(node, ast.Call) and _mentions(node.func).keys()
                                             & {"isinstance", "issubdtype", "can_cast"}):
            assert not _mentions(node).keys() & typing, ast.unparse(node)


def test_one_piece_representation():
    # a droplet or iceberg is its mask: in droplets.py only the sites
    # methods and the test oracles list a piece's lattice points, and no
    # mask is rebuilt from them
    callers, rebuilders = set(), set()
    for top in ast.parse((PACKAGE / "droplets.py").read_text()).body:
        if isinstance(top, ast.ClassDef):
            defs = [(f"{top.name}.{node.name}", node) for node in top.body
                    if isinstance(node, ast.FunctionDef)]
        else:
            defs = [(getattr(top, "name", "<module>"), top)]
        for where, node in defs:
            for call in ast.walk(node):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                    continue
                if call.func.attr == "sites":
                    callers.add(where)
                if call.func.attr == "from_sites" and any(
                        isinstance(n, ast.Attribute) and n.attr == "sites"
                        for arg in call.args for n in ast.walk(arg)):
                    rebuilders.add(where)
    assert callers <= set(ORACLES) | {"Droplet.sites"}, callers
    assert not rebuilders, rebuilders


def test_an_iceberg_is_a_droplet():
    # the iceberg inherits the droplet's fields, checks, constraints and
    # sites, and differs only in how it prints
    tree = ast.parse((PACKAGE / "droplets.py").read_text())
    (iceberg,) = [top for top in tree.body
                  if isinstance(top, ast.ClassDef) and top.name == "Iceberg"]
    assert [ast.unparse(base) for base in iceberg.bases] == ["Droplet"]
    assert not iceberg.decorator_list
    methods = [getattr(node, "name", ast.unparse(node)) for node in iceberg.body
               if not isinstance(node, ast.Expr)]
    assert methods == ["__repr__"], methods


def test_one_side_pair():
    # the two sides of a direction travel together as (plus, minus), from
    # the strip scan up to the difficulty: no per-side entry point, side
    # string or per-side name is left
    family = importlib.import_module("ubootstrap.family")
    lattice = importlib.import_module("ubootstrap.lattice")
    assert not hasattr(family, "difficulty_side") and not hasattr(family, "_sides_below")
    assert [f.name for f in dataclasses.fields(lattice.StripScan)] == [
        "verdicts", "infected", "col_width", "periods"]
    per_side = re.compile(r"(^|_)(plus|minus)_|_(plus|minus)$")
    for name in ("lattice.py", "family.py"):
        idents, strings = set(), set()
        for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
            if isinstance(node, ast.Name):
                idents.add(node.id)
            elif isinstance(node, ast.Attribute):
                idents.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                idents.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                idents.add(node.name)
            elif isinstance(node, ast.Constant) and node.value in ("plus", "minus"):
                strings.add(node.value)
        assert not {i for i in idents if per_side.search(i)}, name
        assert not strings, name


# Names that nothing in src/ or perfbench/ calls, kept because a test uses
# them as an independent oracle for an engine's output: name -> that test.
ORACLES = {
    "closure_rescan": "test_lattice.py::test_matches_rescan_oracle_on_random_families",
    "infection_time": "test_lattice.py::test_sweeps_match_rescan_on_random_families",
    "is_internally_spanned": "test_droplets.py::test_spanned_definitional_vs_algorithm",
    "Droplet.diam": "test_droplets.py::test_extremal_bound",
    "Droplet.proj": "test_droplets.py::test_aizenman_lebowitz_projections",
    "smallest_iceberg": "test_droplets.py::test_iceberg_merges",
    "Direction.angle": "test_geometry.py::test_ccw_key_agrees_with_float_angles",
}


def _mentions(tree) -> Counter:
    """Names and attribute names read or called anywhere under ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(qualified name, short name, node) of every top-level function and
    class, and of every non-dunder method of those classes."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    yield f"{top.name}.{node.name}", node.name, node


def test_every_name_has_a_caller():
    # a name stays when the library or the benchmark names it outside its
    # own definition, or when it is a test's oracle; anything else is dead
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    mentioned = sum((_mentions(tree) for tree in trees), Counter())
    bench = "\n".join(path.read_text() for path in (ROOT / "perfbench").glob("*.py"))
    uncalled = {qual for tree in trees for qual, name, node in _definitions(tree)
                if mentioned[name] == _mentions(node)[name]
                and not re.search(rf"\b{name}\b", bench)}
    assert uncalled == set(ORACLES), (f"uncalled: {sorted(uncalled - set(ORACLES))}; "
                                      f"oracles with a caller: {sorted(set(ORACLES) - uncalled)}")
    for qual, test_id in ORACLES.items():
        path, _, test = test_id.partition("::")
        found = [node for node in ast.walk(ast.parse((ROOT / "tests" / path).read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == test]
        assert found and _mentions(found[0])[qual.split(".")[-1]], (qual, test_id)
