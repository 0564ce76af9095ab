import ast
import symtable
from collections import Counter
from pathlib import Path

import jdl

PACKAGE = Path(jdl.__file__).parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "perfbench"

# public names that only the tests reach today, each waiting for the ROADMAP
# item that gives it a caller
ALLOWED = {
    "model.JointModel.class_probs": "item 9: per-class AUROC of the reference run",
    "pgm.write_pgm": "item 8: the CLI's PGM dumps of samples and counterfactuals",
}


def _sources() -> list[Path]:
    # the benchmark's own tests count: they pin what its workloads measure.
    # A re-export in ``__init__.py`` names a function without calling it
    files = [*PACKAGE.rglob("*.py"), *BENCH.rglob("*.py")]
    return [path for path in files if path.name != "__init__.py"]


def _named(tree: ast.AST) -> Counter:
    """How often each identifier is named: as a variable, an attribute, an
    imported name or a string (``getattr`` and monkeypatching use strings)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names[node.value] += 1
    return names


def _public_defs(path: Path, tree: ast.Module):
    module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_outside_the_tests():
    # matched by bare name: a method counts as used when anything of its name
    # is named in the package or the benchmark, outside its own definition
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in _sources()}
    everywhere = sum((_named(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for qualname, node in _public_defs(path, tree):
            if everywhere[node.name] - _named(node)[node.name] == 0:
                unused.append(qualname)
    assert sorted(set(unused) - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - set(unused)) == [], "allowed names that now have a caller"


def _unused_imports(path: Path) -> list[str]:
    """Names that an import in the module binds and nothing in it reads.

    ``symtable`` reads annotations only where they are evaluated, so the
    ``__future__`` import that defers them is dropped first.
    """
    source = path.read_text().replace("from __future__ import annotations", "")
    imported, read = set(), set()
    tables = [symtable.symtable(source, str(path), "exec")]
    while tables:
        table = tables.pop()
        for symbol in table.get_symbols():
            if symbol.is_imported():
                imported.add(symbol.get_name())
            if symbol.is_referenced():
                read.add(symbol.get_name())
        tables += table.get_children()
    return sorted(imported - read)


def test_every_import_is_used():
    # no linter runs here; a re-export in ``__init__.py`` is its use
    files = [*PACKAGE.rglob("*.py"), *TESTS.glob("*.py")]
    unused = {path.name: _unused_imports(path) for path in files
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
