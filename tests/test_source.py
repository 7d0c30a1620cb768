"""Source checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "poisonlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the package's callers: its own modules, the demos and the benchmark
CALLERS = (MODULES + sorted((SRC.parents[1] / "demos").rglob("*.py"))
           + sorted((SRC.parents[1] / "benchmarks").rglob("*.py")))


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's top-level imports that no name in the
    module refers to (``from __future__`` excluded)."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def objective_name_comparisons(path: Path) -> list[int]:
    """Lines of the module's comparisons with the string "mean" or "sum",
    bare or inside a tuple, list or set."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Compare):
            continue
        for side in (node.left, *node.comparators):
            items = (side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set))
                     else [side])
            if any(isinstance(e, ast.Constant) and e.value in ("mean", "sum")
                   for e in items):
                hits.append(node.lineno)
    return hits


def test_only_models_compares_with_objective_names():
    # models.py holds the objective's lambda rule (TrainConfig.mean_lam and
    # train_with_duals' norm); every other module asks it
    found = {p.name: objective_name_comparisons(p) for p in MODULES
             if p.name != "models.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def defined_names(path: Path) -> list[str]:
    """The functions, classes and methods the module defines, at any depth;
    dunder methods, which Python calls implicitly, excluded."""
    return [node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def referenced_names(paths) -> set[str]:
    """Every name the files use: as a name, an attribute or an import."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    # the package, the demos and the benchmark are the callers; a definition
    # only tests use is an oracle, which belongs beside its test, and the
    # package's exports in __init__.py do not count as a use
    used = referenced_names(CALLERS)
    unused = {p.name: [n for n in defined_names(p) if n not in used] for p in MODULES}
    assert {name: defs for name, defs in unused.items() if defs} == {}
